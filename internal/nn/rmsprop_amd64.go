package nn

// rmspropGroups runs the step on the first len(p) &^ 3 lanes of p, g and sq
// (g and sq at least as long as p) and returns that count. On amd64 it is
// the SSE2 kernel, which matches rmspropStep.lane bit for bit: SSE2 is part
// of the amd64 baseline, and Go never fuses a multiply and an add there,
// so lane rounds each operation just as the kernel's lanes do.
func rmspropGroups(p, g, sq []float32, k *rmspropStep) int {
	n := len(p) &^ 3
	rmspropSSE2(p[:n], g[:n], sq[:n], k.decay, k.keep, k.lr, k.eps, k.small, k.m)
	return n
}

// rmspropSSE2 is rmspropGroups' kernel, in rmsprop_amd64.s. It reads
// len(p) elements of each slice; rmspropGroups has checked the lengths.
//
//go:noescape
func rmspropSSE2(p, g, sq []float32, decay, keep, lr, eps float32, small, m uint32)
