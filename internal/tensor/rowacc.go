package tensor

// useAVX is whether rowAcc runs its AVX kernel: the CPU has AVX and the OS
// saves the YMM registers (amd64 only). It is set once; tests clear it to
// run the portable loop on an AVX machine.
var useAVX = cpuHasAVX()

// rowAcc is the inner loop of the three matmuls. For every j < len(o) it
// computes
//
//	o[j] += a[p·astride] · b[p·bstride + j]
//
// over p < n in ascending p, skipping every p whose a term is ±0 when skip
// is set (a NaN is not skipped). It then adds bias[j] to o[j] when bias is
// not nil and, if relu is set, replaces every o[j] that is not positive
// (-0, +0, negatives) by +0; NaN passes. Every product and every sum is
// rounded once, in that order, so each element comes out bit for bit as
// the scalar loop in rowAccGeneric computes it, NaN payloads aside.
//
// With AVX the columns go through rowAccAVX in chunks of 64, then 8: each
// chunk of o stays in YMM registers across the whole reduction and takes
// its bias and ReLU as it is stored. The last len(o) mod 8 columns, and
// every column without AVX, take rowAccGeneric. Lanes are independent, so
// the split changes no element.
func rowAcc(o, a, b, bias []float32, n, astride, bstride int, relu, skip bool) {
	m := len(o)
	if m == 0 {
		return
	}
	if n > 0 {
		_ = a[(n-1)*astride]
		_ = b[(n-1)*bstride+m-1]
	}
	if bias != nil {
		_ = bias[m-1]
		bias = bias[:m]
	}
	w := 0
	if useAVX && n > 0 {
		if w = m &^ 7; w > 0 {
			var bw []float32
			if bias != nil {
				bw, bias = bias[:w], bias[w:]
			}
			rowAccAVX(o[:w], a, b, bw, n, astride, bstride, relu, skip)
			o, b = o[w:], b[w:]
		}
	}
	if w < m {
		rowAccGeneric(o, a, b, bias, n, astride, bstride, relu, skip)
	}
}

// rowAccGeneric is rowAcc's portable loop and the definition its kernel
// must match: p outside, j inside, then the bias pass and the ReLU pass.
func rowAccGeneric(o, a, b, bias []float32, n, astride, bstride int, relu, skip bool) {
	m := len(o)
	for p := 0; p < n; p++ {
		av := a[p*astride]
		if skip && av == 0 {
			continue
		}
		for j, x := range b[p*bstride : p*bstride+m] {
			o[j] += av * x
		}
	}
	if bias != nil {
		for j, v := range bias[:m] {
			o[j] += v
		}
	}
	if relu {
		for j, v := range o {
			if v <= 0 {
				o[j] = 0
			}
		}
	}
}
