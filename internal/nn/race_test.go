//go:build race

package nn

// raceEnabled reports whether the race detector is on: sync.Pool then drops
// Puts at random, so allocation-count assertions on the pool do not hold.
const raceEnabled = true
