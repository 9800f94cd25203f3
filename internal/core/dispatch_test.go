package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// dispatchExplorer builds explorer id, not started, dispatching to two learn
// replicas under staleness bound k; failover keeps expired rollouts for
// replay.
func dispatchExplorer(id int32, k int, failover bool) *Explorer {
	e := NewExplorer(id, &recordingAgent{}, nil, 1)
	r := &e.route
	r.replicas, r.live = replicaNames(2), replicaNames(2)
	r.maxStale, r.next, r.failover = k, int(id), failover
	return e
}

// staged empties the explorer's send buffer, returning its messages.
func staged(e *Explorer) []*message.Message {
	var out []*message.Message
	for {
		m, err := e.sendBuf.TryNext()
		if err != nil {
			return out
		}
		out = append(out, m)
	}
}

func versioned(v int64) *rollout.Batch { return &rollout.Batch{WeightsVersion: v} }

// TestExplorerRoutesByVersionAtK0: under strict assignment order every
// rollout of weights version v goes to live[v mod len(live)], whichever
// explorer made it, so one replica sees a version's complete set; after a
// quarantine the rule holds over the survivors. A relaxed bound round-robins
// per rollout, each explorer starting at its own id.
func TestExplorerRoutesByVersionAtK0(t *testing.T) {
	for id := int32(0); id < 3; id++ {
		e := dispatchExplorer(id, 0, false)
		for v := int64(0); v < 6; v++ {
			e.ship(versioned(v))
		}
		for i, m := range staged(e) {
			if want := LearnName(i % 2); m.Header.Dst[0] != want {
				t.Fatalf("K=0 explorer %d: version %d went to %s, want %s", id, i, m.Header.Dst[0], want)
			}
		}
		if !e.quarantine(LearnName(0)) {
			t.Fatal("quarantine reported a closed send buffer")
		}
		e.ship(versioned(6))
		e.ship(versioned(7))
		for _, m := range staged(e) {
			if m.Header.Dst[0] != LearnName(1) {
				t.Fatalf("K=0 explorer %d: sent to %s after learn-0's quarantine", id, m.Header.Dst[0])
			}
		}
	}
	for id := int32(0); id < 3; id++ {
		e := dispatchExplorer(id, 1, false)
		for i := 0; i < 4; i++ {
			e.ship(versioned(0))
		}
		for i, m := range staged(e) {
			if want := LearnName((int(id) + i) % 2); m.Header.Dst[0] != want {
				t.Fatalf("K=1 explorer %d: rollout %d went to %s, want %s", id, i, m.Header.Dst[0], want)
			}
		}
	}
}

// TestExplorerQuarantineReplay: when a replica is quarantined, the explorer
// replays to the survivor every rollout the replica has not acked —
// at least once — except those the staleness bound now sheds; acked ones are
// not replayed. Rejoin restores the rotation.
func TestExplorerQuarantineReplay(t *testing.T) {
	const k = 2
	e := dispatchExplorer(0, k, true)
	e.route.seen = 10
	// Round-robin from explorer 0: even rollouts to learn-0, odd to learn-1.
	versions := []int64{10, 10, 9, 10, 7, 10, 8, 10, 10, 10}
	for _, v := range versions {
		e.ship(versioned(v))
	}
	sent := staged(e)
	var toL0 []*message.Message
	for _, m := range sent {
		if m.Header.Dst[0] == LearnName(0) {
			toL0 = append(toL0, m)
		}
	}
	// learn-0 acks once: it has taken its first two rollouts.
	ack := message.New(message.TypeControl, LearnName(0), []string{ExplorerName(0)}, &message.ControlPayload{
		Kind: message.ControlRolloutAck, Acked: map[string]int64{ExplorerName(0): int64(toL0[1].Header.ID)}})
	e.apply(ack)
	// The bound moves on while the rest are in flight: version 7 (4 behind
	// 11) and 8 (3 behind) are now past it.
	e.route.seen = 11
	quarantine := message.New(message.TypeControl, ControllerName, []string{ExplorerName(0)},
		&message.ControlPayload{Kind: message.ControlQuarantine, Peer: LearnName(0)})
	if !e.apply(quarantine) {
		t.Fatal("quarantine reported a closed send buffer")
	}
	replays := staged(e)
	var want []*rollout.Batch
	for _, m := range toL0[2:] {
		if b := m.Body.(*rollout.Batch); 11-b.WeightsVersion <= k {
			want = append(want, b)
		}
	}
	if len(replays) != len(want) {
		t.Fatalf("%d replays, want %d", len(replays), len(want))
	}
	for i, m := range replays {
		if m.Header.Dst[0] != LearnName(1) || m.Body != want[i] {
			t.Fatalf("replay %d: %v to %s, want %v to %s", i, m.Body, m.Header.Dst[0], want[i], LearnName(1))
		}
		if m.Header.WeightsVersion != want[i].WeightsVersion {
			t.Fatalf("replay %d carries version %d, want %d", i, m.Header.WeightsVersion, want[i].WeightsVersion)
		}
	}
	c := e.route.counts
	if got := c.redispatches.Load(); got != int64(len(want)) {
		t.Fatalf("redispatches = %d, want %d", got, len(want))
	}
	if got := c.staleDrops.Load(); got != int64(len(toL0)-2-len(want)) {
		t.Fatalf("staleDrops = %d, want %d", got, len(toL0)-2-len(want))
	}
	if c.dispatched.Load() != int64(len(versions)+len(want)) {
		t.Fatalf("dispatched = %d, want %d", c.dispatched.Load(), len(versions)+len(want))
	}
	if e.route.lanes[LearnName(0)] != nil {
		t.Fatal("the quarantined replica's ring survived")
	}
	// A duplicate quarantine replays nothing; a rejoin restores the order.
	e.apply(quarantine)
	if n := len(staged(e)); n != 0 {
		t.Fatalf("a duplicate quarantine staged %d messages", n)
	}
	e.apply(message.New(message.TypeControl, ControllerName, []string{ExplorerName(0)},
		&message.ControlPayload{Kind: message.ControlRejoin, Peer: LearnName(0)}))
	if !slices.Equal(e.route.live, replicaNames(2)) {
		t.Fatalf("live after rejoin = %v, want %v", e.route.live, replicaNames(2))
	}
}

// staleAlg records, in order, the version of every echo installed and every
// rollout handed to it; it never trains.
type staleAlg struct {
	mu     sync.Mutex
	events []int64 // echoes as -(v+1), rollouts as v
}

func (a *staleAlg) Name() string { return "stale-recorder" }
func (a *staleAlg) PrepareData(b *rollout.Batch) {
	a.mu.Lock()
	a.events = append(a.events, b.WeightsVersion)
	a.mu.Unlock()
}
func (a *staleAlg) TryTrain() (TrainResult, bool, error) { return TrainResult{}, false, nil }
func (a *staleAlg) Weights() *message.WeightsPayload     { return &message.WeightsPayload{} }
func (a *staleAlg) RestoreWeights(v int64, _ []float32) error {
	a.mu.Lock()
	a.events = append(a.events, -(v + 1))
	a.mu.Unlock()
	return nil
}

// TestReplicaIngestStalenessBound is the bound's property test at ingest: a
// learn replica fed interleaved echoes and rollouts of random age trains on
// no rollout more than K versions behind the committed version of its newest
// echo, sheds exactly the others, and reports every one it lets through to
// the audit hook with that committed version.
func TestReplicaIngestStalenessBound(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			br := broker.New(broker.Config{})
			port, err := br.Register(LearnName(0))
			if err != nil {
				t.Fatal(err)
			}
			alg := &staleAlg{}
			l := NewLearnFragment(0, alg, port, 1<<20, 0)
			l.maxStale = k
			l.counts = &dispatchCounts{}
			var audited int
			l.SetStalenessObserver(func(v, c int64) {
				if c-v > int64(k) {
					t.Errorf("audit: rollout v%d trained at committed v%d", v, c)
				}
				audited++
			})
			rng := rand.New(rand.NewSource(int64(k) + 1))
			// Versions start high enough that no rollout's is negative: the
			// recorder tells echoes from rollouts by sign.
			c := int64(10)
			var sent, wantKept int
			for i := 0; i < 400; i++ {
				var m *message.Message
				if i == 0 || rng.Intn(4) == 0 {
					c += int64(rng.Intn(3))
					m = message.New(message.TypeWeights, BroadcastName, []string{LearnName(0)},
						&message.WeightsPayload{Version: c, Data: []float32{0}})
				} else {
					v := c - int64(rng.Intn(6)) + 1
					m = message.New(message.TypeRollout, ExplorerName(int32(i%4)), []string{LearnName(0)}, versioned(v))
					m.Header.WeightsVersion = v
					sent++
					if c-v <= int64(k) {
						wantKept++
					}
				}
				queueFor(t, br, m)
			}
			l.Start()
			deadline := time.Now().Add(5 * time.Second)
			for port.Pending() > 0 || l.recvBuf.Len() > 0 {
				if time.Now().After(deadline) {
					t.Fatal("replica never drained its queue")
				}
				time.Sleep(time.Millisecond)
			}
			l.Stop()
			br.Stop()
			l.Join()

			var committed int64
			var kept int
			for _, ev := range alg.events {
				if ev < 0 {
					committed = max(committed, -ev-1)
					continue
				}
				kept++
				if committed-ev > int64(k) {
					t.Fatalf("trained on a rollout of v%d at committed v%d (K=%d)", ev, committed, k)
				}
			}
			if kept != wantKept || audited != wantKept {
				t.Fatalf("trained %d, audited %d of %d rollouts, want %d within the bound", kept, audited, sent, wantKept)
			}
			if got := l.counts.staleDrops.Load(); got != int64(sent-wantKept) {
				t.Fatalf("staleDrops = %d, want %d", got, sent-wantKept)
			}
		})
	}
}

// TestExplorerStatsAreRateLimited: an explorer sends its first statistics at
// once and then at most one message per statsEvery, however many rollouts
// it makes in between.
func TestExplorerStatsAreRateLimited(t *testing.T) {
	br := broker.New(broker.Config{})
	ports := map[string]*broker.Port{}
	for _, name := range []string{ExplorerName(0), LearnerName, ControllerName} {
		p, err := br.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		ports[name] = p
	}
	e := NewExplorer(0, &pacedAgent{every: time.Millisecond}, ports[ExplorerName(0)], 1)
	e.SetMaxInflight(-1)
	start := time.Now()
	e.Start()
	time.Sleep(350 * time.Millisecond)
	e.Stop()
	e.Join()
	elapsed := time.Since(start)
	deadline := time.Now().Add(5 * time.Second)
	for m := br.Metrics(); m.HeadersRouted != m.Sends; m = br.Metrics() {
		if time.Now().After(deadline) {
			t.Fatal("router never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	stats, rollouts := ports[ControllerName].Pending(), ports[LearnerName].Pending()
	br.Stop()
	limit := 1 + int(elapsed/statsEvery)
	if stats < 1 || stats > limit {
		t.Fatalf("%d stats messages in %v, want 1..%d", stats, elapsed, limit)
	}
	if rollouts <= 2*stats {
		t.Fatalf("%d rollouts beside %d stats messages: the agent was too slow to show the limit", rollouts, stats)
	}
}

// pacedAgent makes an empty rollout every `every`.
type pacedAgent struct{ every time.Duration }

func (a *pacedAgent) Rollout(int) (*rollout.Batch, error) {
	time.Sleep(a.every)
	return &rollout.Batch{Steps: make([]rollout.Step, 1)}, nil
}
func (a *pacedAgent) SetWeights(*message.WeightsPayload) error { return nil }
func (a *pacedAgent) WeightsVersion() int64                    { return 0 }
func (a *pacedAgent) OnPolicy() bool                           { return false }
func (a *pacedAgent) EpisodeStats() (int64, float64)           { return 0, 0 }
