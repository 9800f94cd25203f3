package tensor

// cpuHasAVX reports whether CPUID lists AVX and OSXSAVE and XCR0 enables
// the SSE and AVX register state, in rowacc_amd64.s.
func cpuHasAVX() bool

// rowAccAVX is rowAcc's kernel (and, with skipB, laneAcc's) on every
// column of o, in rowacc_amd64.s. flags holds skipA, reluOut and skipB.
// The caller has checked that a and b hold every element it reads and that
// bias, if not nil, is len(o) long.
//
//go:noescape
func rowAccAVX(o, a, b, bias []float32, n, astride, bstride, flags int)

// gateReLUAVX is gateReLU's kernel, in rowacc_amd64.s; g and y are len(o)
// long.
//
//go:noescape
func gateReLUAVX(o, g, y []float32)

// scaleAVX is ScaleInPlace's kernel, in rowacc_amd64.s.
//
//go:noescape
func scaleAVX(o []float32, s float32)

// transposeAVX is transposeInto's kernel on the whole 8×8 blocks, in
// rowacc_amd64.s; dst and src are rows·cols long.
//
//go:noescape
func transposeAVX(dst, src []float32, rows, cols int)
