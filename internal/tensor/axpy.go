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

// axpy4Generic is the portable body of axpy4: the four calls
// axpyGeneric(o, b0, a0) … axpyGeneric(o, b3, a3) in that order, as one pass
// over o. Each element takes the same four rounded products and the same
// four rounded sums in the same order, so the result is the same bit for
// bit; o is read and written once instead of four times.
func axpy4Generic(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(b0)
	o, b1, b2, b3 = o[:n], b1[:n], b2[:n], b3[:n]
	for j, v := range b0 {
		x := o[j]
		x += a0 * v
		x += a1 * b1[j]
		x += a2 * b2[j]
		x += a3 * b3[j]
		o[j] = x
	}
}
