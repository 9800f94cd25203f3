package tensor

// useAVX is whether the package runs its AVX kernels: the CPU has AVX and
// the OS saves the YMM registers (amd64 only). It is set once; tests clear
// it to run the portable loops on an AVX machine.
var useAVX = cpuHasAVX()

// The flags rowAccAVX takes: which zero-skip it applies and whether it
// rectifies its output.
const (
	skipA   = 1 << iota // pass over every p whose a term is ±0
	reluOut             // rectify each lane after the bias
	skipB               // per lane, pass over every p whose b term is ±0
)

// unit is the one-element a operand with which rowAcc adds b's rows into o
// unchanged: 1·x is x exactly, NaN payloads aside.
var unit = []float32{1}

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
// With AVX every column goes through rowAccAVX, in chunks of 64, then 32,
// then 8, the last len(o) mod 8 of them through a masked chunk: each chunk
// of o stays in YMM registers across the whole reduction and takes its
// bias and ReLU as it is stored. Without AVX every column takes
// rowAccGeneric. Lanes are independent, so the split changes no element.
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
	if !useAVX {
		rowAccGeneric(o, a, b, bias, n, astride, bstride, relu, skip)
		return
	}
	flags := 0
	if skip {
		flags |= skipA
	}
	if relu {
		flags |= reluOut
	}
	rowAccAVX(o, a, b, bias, n, astride, bstride, flags)
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

// laneAcc is rowAcc with the zero-skip on the other operand and neither
// bias nor ReLU: for every j < len(o) it computes
//
//	o[j] += a[p·astride] · b[p·bstride + j]
//
// over p < n in ascending p, leaving o[j] as it is for every p whose b term
// is ±0 (a NaN is not skipped). It is how a matmul runs with its lanes over
// the operand whose zeros the scalar loop skips. With AVX it is rowAccAVX
// with a per-lane blend (skipB); without, laneAccGeneric.
func laneAcc(o, a, b []float32, n, astride, bstride int) {
	m := len(o)
	if m == 0 || n == 0 {
		return
	}
	_ = a[(n-1)*astride]
	_ = b[(n-1)*bstride+m-1]
	if useAVX {
		rowAccAVX(o, a, b, nil, n, astride, bstride, skipB)
		return
	}
	laneAccGeneric(o, a, b, n, astride, bstride)
}

// laneAccGeneric is laneAcc's portable loop and the definition its kernel
// must match.
func laneAccGeneric(o, a, b []float32, n, astride, bstride int) {
	m := len(o)
	for p := 0; p < n; p++ {
		av := a[p*astride]
		for j, x := range b[p*bstride : p*bstride+m] {
			if x != 0 {
				o[j] += av * x
			}
		}
	}
}

// gateReLU sets o[i] to g[i] where y[i] is positive or NaN and to +0 where
// it is not (y <= 0), for every i < len(o); g and y are at least that long.
// With AVX it runs gateReLUAVX, a compare and a mask per 8 lanes.
func gateReLU(o, g, y []float32) {
	g, y = g[:len(o)], y[:len(o)]
	if useAVX {
		gateReLUAVX(o, g, y)
		return
	}
	for i, v := range g {
		if y[i] <= 0 {
			v = 0
		}
		o[i] = v
	}
}
