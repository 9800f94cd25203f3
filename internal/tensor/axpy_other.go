//go:build !amd64

package tensor

// axpy adds a·b[j] to o[j] for every j < len(b); o must be at least as long
// as b. Off amd64 it is the portable loop.
func axpy(o, b []float32, a float32) { axpyGeneric(o, b, a) }
