package tensor

// axpy adds a·b[j] to o[j] for every j < len(b); o must be at least as long
// as b. On amd64 the SSE2 kernel does it four lanes at a time. Each lane
// rounds the product (MULPS) and then the sum (ADDPS), exactly as the scalar
// loop in axpyGeneric does: Go never fuses a*b+c on amd64, so the two agree
// bit for bit. SSE2 is part of the amd64 baseline, so there is nothing to
// probe for.
func axpy(o, b []float32, a float32) { axpySSE2(o[:len(b)], b, a) }

// axpy4 adds a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] to o[j] for every
// j < len(b0), term by term in that order, exactly as four axpy calls would;
// o, b1, b2 and b3 must be at least as long as b0. The kernel keeps o[j] in
// a register across the four terms, so each output row is loaded and stored
// once per four terms instead of once per term.
func axpy4(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(b0)
	axpy4SSE2(o[:n], b0, b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

// axpySSE2 is axpy's kernel, in axpy_amd64.s. It reads len(b) elements of
// each slice; axpy has already checked o is long enough.
//
//go:noescape
func axpySSE2(o, b []float32, a float32)

// axpy4SSE2 is axpy4's kernel, in axpy_amd64.s. It reads len(b0) elements
// of each slice; axpy4 has already checked the others are long enough.
//
//go:noescape
func axpy4SSE2(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
