package tensor

// cpuHasAVX reports whether CPUID lists AVX and OSXSAVE and XCR0 enables
// the SSE and AVX register state, in rowacc_amd64.s.
func cpuHasAVX() bool

// rowAccAVX is rowAcc's kernel on len(o) columns, a multiple of 8, in
// rowacc_amd64.s. rowAcc has checked that a and b hold every element it
// reads and that bias, if not nil, is len(o) long.
//
//go:noescape
func rowAccAVX(o, a, b, bias []float32, n, astride, bstride int, relu, skip bool)
