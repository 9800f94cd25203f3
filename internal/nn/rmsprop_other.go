//go:build !amd64

package nn

// rmspropGroups leaves every lane to rmspropStep.lane off amd64: it runs
// none and returns 0.
func rmspropGroups(p, g, sq []float32, k *rmspropStep) int { return 0 }
