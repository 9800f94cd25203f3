package core

import (
	"errors"
	"testing"
)

// TestFailFragmentsAfterDone: a terminal verdict that lands after the run
// already ended (step target reached, or Stop) still reaches Err, and the
// first verdict stands.
func TestFailFragmentsAfterDone(t *testing.T) {
	f := &fragRuntime{done: make(chan struct{})}
	s := &Session{frags: f}
	f.doneOne.Do(func() { close(f.done) })
	first := errors.New("standby cannot be built")
	s.failFragments(first)
	s.failFragments(errors.New("a later verdict"))
	if err := f.err(); !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first terminal verdict", err)
	}
}
