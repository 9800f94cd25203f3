package core

import (
	"fmt"
	"math"

	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// weightMirror is the flat shadow of the weights an explorer's agent or a
// learn replica's algorithm holds, the base sparse deltas apply to; its
// version refuses deltas whose base the destination never saw (a restart, a
// lost message). Only the thread that installs weights touches it.
type weightMirror struct {
	version int64
	flat    []float32
	// install is the payload an explorer hands its agent after a delta.
	install message.WeightsPayload
}

// mirrorInvalid is the version of a mirror whose vector no longer matches
// the destination's weights: no delta's base, so every delta is refused
// (and NACKed) until a dense snapshot re-seeds it.
const mirrorInvalid = math.MinInt64

// setDense records a full snapshot as the new base.
func (m *weightMirror) setDense(w *message.WeightsPayload) {
	m.flat = append(m.flat[:0], w.Data...)
	m.version = w.Version
}

// applyDelta advances the mirror by one delta in place. A delta that does
// not apply leaves the mirror unchanged.
func (m *weightMirror) applyDelta(d *message.WeightsDeltaPayload) error {
	if m.flat == nil {
		return fmt.Errorf("no weights applied yet, delta base %d unavailable", d.BaseVersion)
	}
	if m.version == mirrorInvalid {
		return fmt.Errorf("mirror invalidated by a failed install, delta base %d unavailable", d.BaseVersion)
	}
	if m.version != d.BaseVersion {
		return fmt.Errorf("mirror at version %d, delta expects base %d", m.version, d.BaseVersion)
	}
	if _, err := serialize.ApplyDelta(m.flat, d); err != nil {
		return err
	}
	m.version = d.Version
	return nil
}
