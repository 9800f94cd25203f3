package tensor

// axpy adds a·b[j] to o[j] for every j < len(b); o must be at least as long
// as b. On amd64 the SSE2 kernel does it four lanes at a time. Each lane
// rounds the product (MULPS) and then the sum (ADDPS), exactly as the scalar
// loop in axpyGeneric does: Go never fuses a*b+c on amd64, so the two agree
// bit for bit. SSE2 is part of the amd64 baseline, so there is nothing to
// probe for.
func axpy(o, b []float32, a float32) { axpySSE2(o[:len(b)], b, a) }

// axpySSE2 is axpy's kernel, in axpy_amd64.s. It reads len(b) elements of
// each slice; axpy has already checked o is long enough.
//
//go:noescape
func axpySSE2(o, b []float32, a float32)
