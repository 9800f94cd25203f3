package serialize

// maxAbsBits returns the largest magnitude bits of cur[i]−base[i] over the
// first len(cur) &^ 15 lanes, 0 when there are none; base is at least as
// long as cur. It is maxAbsDelta's block sweep, the SSE2 kernel in
// delta_amd64.s: SSE2 is the amd64 baseline, and SUBPS rounds each lane as
// Go's float32 subtraction does.
//
//go:noescape
func maxAbsBits(base, cur []float32) uint32

// skipBelow returns the first lane from i on whose cur−base magnitude bits
// are at least half, if a whole 8-lane block from i holds it, and otherwise
// the first lane it did not look at (at most len(cur), and at most 7 lanes
// before it); base is at least as long as cur. It is nextAtLeast's block
// scan, the SSE2 kernel in delta_amd64.s.
//
//go:noescape
func skipBelow(base, cur []float32, i int, half uint32) int
