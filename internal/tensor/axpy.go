package tensor

// axpyGeneric is the portable body of axpy: o[j] += a·b[j] for j < len(b),
// one rounded multiply then one rounded add per element, in ascending j. It
// is the matmul inner loop every architecture compiled before the amd64
// kernel, and the definition that kernel must match bit for bit.
func axpyGeneric(o, b []float32, a float32) {
	o = o[:len(b)]
	for j, bv := range b {
		o[j] += a * bv
	}
}
