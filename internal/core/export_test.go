package core

import (
	"time"

	"xingtian/internal/message"
)

// PushRetry is a learn replica's idle-wait bound while its push is
// unanswered.
const PushRetry = pushRetry

// SetPushRetry replaces a learn replica's idle-wait bound while its push is
// unanswered. Call before Start.
func (l *LearnFragment) SetPushRetry(d time.Duration) { l.retryAfter = d }

// HoldLearnRecv makes learn replica idx's first incarnation keep its
// receiver thread alive after the receive loop ends, draining the replica's
// port until the transport closes it. Its RecvDone then closes only when the
// session stops the transport, which widens every wait on RecvDone to the
// whole rest of the run. Call between NewSession and Start.
func (s *Session) HoldLearnRecv(idx int) {
	l := s.frags.slots[idx].current()
	l.recvHold = func() {
		for {
			if _, err := l.port.Recv(); err != nil {
				return
			}
		}
	}
}

// AckedWeights returns the broadcaster's ledger of the weights version each
// explorer last acked, the one its weight plane plans against.
func (b *BroadcastFragment) AckedWeights() map[string]int64 { return b.port.AckedWeights() }

// DenseWeights returns cfg with the weight plane's deltas off, so every
// broadcast is a dense snapshot: the dense arm of
// TestSessionWeightDeltaConvergenceParity.
func DenseWeights(cfg Config) Config {
	cfg.denseWeights = true
	return cfg
}

// FilterLearnRecv hands fn every message learn replica idx's first
// incarnation receives, on its receiver thread; a message fn rejects is
// lost. Call between NewSession and Start.
func (s *Session) FilterLearnRecv(idx int, fn func(*message.Message) bool) {
	s.frags.slots[idx].current().recvFilter = fn
}

// DrainCap is the most messages one trainer cycle takes off its receive
// buffer.
const DrainCap = drainCap

// LearnPending reports how many messages wait in learn replica idx's port
// queue for its receiver thread.
func (s *Session) LearnPending(idx int) int { return s.frags.slots[idx].current().port.Pending() }
