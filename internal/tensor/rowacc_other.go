//go:build !amd64

package tensor

// cpuHasAVX is false off amd64: the package runs its portable loops.
func cpuHasAVX() bool { return false }

func rowAccAVX(o, a, b, bias []float32, n, astride, bstride, flags int) {
	panic("tensor: no AVX kernel on this architecture")
}

func gateReLUAVX(o, g, y []float32) {
	panic("tensor: no AVX kernel on this architecture")
}

func scaleAVX(o []float32, s float32) {
	panic("tensor: no AVX kernel on this architecture")
}

func transposeAVX(dst, src []float32, rows, cols int) {
	panic("tensor: no AVX kernel on this architecture")
}
