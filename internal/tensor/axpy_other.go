//go:build !amd64

package tensor

// axpy adds a·b[j] to o[j] for every j < len(b); o must be at least as long
// as b. Off amd64 it is the portable loop.
func axpy(o, b []float32, a float32) { axpyGeneric(o, b, a) }

// axpy4 adds a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] to o[j], term by
// term, for every j < len(b0). Off amd64 it is the portable loop.
func axpy4(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	axpy4Generic(o, b0, b1, b2, b3, a0, a1, a2, a3)
}
