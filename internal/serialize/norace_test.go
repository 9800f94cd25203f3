//go:build !race

package serialize

const raceEnabled = false
