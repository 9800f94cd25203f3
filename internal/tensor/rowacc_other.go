//go:build !amd64

package tensor

// cpuHasAVX is false off amd64: rowAcc runs the portable loop.
func cpuHasAVX() bool { return false }

func rowAccAVX(o, a, b, bias []float32, n, astride, bstride int, relu, skip bool) {
	panic("tensor: no AVX kernel on this architecture")
}
