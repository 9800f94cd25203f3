//go:build !amd64

package serialize

import "math"

// maxAbsBits returns the largest magnitude bits of cur[i]−base[i] over the
// first len(cur) &^ 15 lanes, 0 when there are none; base is at least as
// long as cur. Off amd64 it is four running maxima in Go.
func maxAbsBits(base, cur []float32) uint32 {
	n := len(cur) &^ 15
	cur, base = cur[:n], base[:n]
	var m0, m1, m2, m3 uint32
	for i := 0; i < n; i += 4 {
		c, b := cur[i:i+4:i+4], base[i:i+4:i+4]
		m0 = max(m0, math.Float32bits(c[0]-b[0])&^signBit)
		m1 = max(m1, math.Float32bits(c[1]-b[1])&^signBit)
		m2 = max(m2, math.Float32bits(c[2]-b[2])&^signBit)
		m3 = max(m3, math.Float32bits(c[3]-b[3])&^signBit)
	}
	return max(m0, m1, m2, m3)
}

// skipBelow returns i advanced past every whole 4-lane group whose cur−base
// magnitude bits are all below half; base is at least as long as cur. Off
// amd64 it is a Go loop, and nextAtLeast finds the lane in the group it
// stops at.
func skipBelow(base, cur []float32, i int, half uint32) int {
	base = base[:len(cur)]
	for ; i+4 <= len(cur); i += 4 {
		c, b := cur[i:i+4:i+4], base[i:i+4:i+4]
		a0 := math.Float32bits(c[0]-b[0]) &^ signBit
		a1 := math.Float32bits(c[1]-b[1]) &^ signBit
		a2 := math.Float32bits(c[2]-b[2]) &^ signBit
		a3 := math.Float32bits(c[3]-b[3]) &^ signBit
		if max(a0, a1, a2, a3) >= half {
			break
		}
	}
	return i
}
