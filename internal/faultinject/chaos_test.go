package faultinject_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/fabric"
	"xingtian/internal/faultinject"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// chaosAgent produces fixed-size rollouts and crashes exactly once per
// explorer slot, at the point its shared fault handle dictates. The restarted
// incarnation shares the handle, so it runs clean.
type chaosAgent struct {
	fault *faultinject.AgentFault
}

var _ core.Agent = (*chaosAgent)(nil)

var errInjectedCrash = errors.New("injected agent crash")

func (a *chaosAgent) Rollout(n int) (*rollout.Batch, error) {
	if a.fault.ShouldFail() {
		return nil, errInjectedCrash
	}
	return &rollout.Batch{Steps: make([]rollout.Step, n)}, nil
}

func (a *chaosAgent) SetWeights(*message.WeightsPayload) error { return nil }
func (a *chaosAgent) WeightsVersion() int64                    { return 0 }
func (a *chaosAgent) OnPolicy() bool                           { return false }
func (a *chaosAgent) EpisodeStats() (int64, float64)           { return 0, 0 }

// rebroadcastAlgorithm trains on every batch and rebroadcasts weights to all
// explorers each iteration, so a weight frame lost to a link kill is
// re-issued on the next training session (the credit-based flow control
// self-heals).
type rebroadcastAlgorithm struct {
	pending []*rollout.Batch
}

var _ core.Algorithm = (*rebroadcastAlgorithm)(nil)

func (c *rebroadcastAlgorithm) Name() string                          { return "chaos-counting" }
func (c *rebroadcastAlgorithm) PrepareData(b *rollout.Batch)          { c.pending = append(c.pending, b) }
func (c *rebroadcastAlgorithm) RestoreWeights(int64, []float32) error { return nil }
func (c *rebroadcastAlgorithm) Weights() *message.WeightsPayload {
	return &message.WeightsPayload{Data: []float32{1}}
}

func (c *rebroadcastAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	if len(c.pending) == 0 {
		return core.TrainResult{}, false, nil
	}
	b := c.pending[0]
	c.pending = c.pending[1:]
	return core.TrainResult{StepsConsumed: len(b.Steps), Broadcast: true}, true, nil
}

// TestChaosTwoMachineTraining runs a real two-machine TCP deployment past a
// step target while the injector kills links every K writes and crashes each
// explorer once mid-training. Supervision must restart the explorers, the
// fabric must redial and retry, the target must be reached, and both object
// stores must drain clean.
func TestChaosTwoMachineTraining(t *testing.T) {
	const maxSteps = 2000

	inj := faultinject.New(faultinject.Config{
		Seed:                   11,
		ConnResetEveryKWrites:  40,
		AgentFailAfterRollouts: 3,
	})
	grid, err := fabric.NewGrid(2, fabric.GridOptions{
		ConnWrapper:    inj.WrapConn,
		RedialAttempts: 500,
		RedialBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}

	// One fault handle per explorer slot, shared across restarts: the slot
	// crashes once, its replacement runs clean.
	var mu sync.Mutex
	faults := map[int32]*faultinject.AgentFault{}
	agF := func(id int32, seed int64) (core.Agent, error) {
		mu.Lock()
		defer mu.Unlock()
		f, ok := faults[id]
		if !ok {
			f = inj.NewAgentFault()
			faults[id] = f
		}
		return &chaosAgent{fault: f}, nil
	}
	algF := func(seed int64) (core.Algorithm, error) { return &rebroadcastAlgorithm{}, nil }

	s, err := core.NewSession(core.Config{
		NumExplorers:        2, // explorer-0 local to the learner, explorer-1 remote
		Machines:            2,
		Transport:           grid,
		RolloutLen:          20,
		MaxExplorerRestarts: 3,
		RestartBackoff:      2 * time.Millisecond,
	}, algF, agF, 1)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// The run ends on the behaviour under test, not on a step count: the
	// local explorer alone can deliver every step before the remote link
	// reaches its 40th write. So training runs unbounded (MaxSteps 0) until
	// the target is consumed, the injector has reset a connection, and the
	// wire has reconnected; the remote explorer keeps writing until then.
	wireReconnects := func(h broker.ClusterHealth) int64 {
		var n int64
		for _, w := range h.Wire {
			n += w.Reconnects
		}
		return n
	}
	s.Start()
	deadline := time.Now().Add(30 * time.Second)
	for s.Learner().StepsConsumed() < maxSteps || inj.Stats().ConnResets < 1 || wireReconnects(s.ChannelHealth()) < 1 {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("chaos run stalled: %d of %d steps, injector %+v, wire %+v",
				s.Learner().StepsConsumed(), maxSteps, inj.Stats(), s.ChannelHealth().Wire)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error after chaos run: %v", err)
	}

	if rep.StepsConsumed < maxSteps {
		t.Fatalf("StepsConsumed = %d, want >= %d (training did not survive the faults)",
			rep.StepsConsumed, maxSteps)
	}
	if rep.ExplorerRestarts < 1 {
		t.Fatalf("ExplorerRestarts = %d, want >= 1 (agent faults were injected)", rep.ExplorerRestarts)
	}
	if rep.RestartLastError == "" {
		t.Fatal("RestartLastError empty after restarts")
	}
	if rep.Channel.Supervision.ExplorerRestarts != rep.ExplorerRestarts {
		t.Fatalf("ClusterHealth supervision restarts = %d, report says %d",
			rep.Channel.Supervision.ExplorerRestarts, rep.ExplorerRestarts)
	}

	stats := inj.Stats()
	if stats.ConnResets < 1 {
		t.Fatalf("injector never reset a connection: %+v", stats)
	}
	if stats.AgentFaults != 2 {
		t.Fatalf("AgentFaults = %d, want 2 (one per slot)", stats.AgentFaults)
	}
	var reconnects, retried int64
	for _, w := range rep.Channel.Wire {
		reconnects += w.Reconnects
		retried += w.RetriedFrames
	}
	if reconnects < 1 {
		t.Fatalf("no reconnects recorded despite %d conn resets; wire: %+v",
			stats.ConnResets, rep.Channel.Wire)
	}
	t.Logf("chaos run: %d steps, %d restarts, %d resets, %d reconnects, %d retried frames",
		rep.StepsConsumed, rep.ExplorerRestarts, stats.ConnResets, reconnects, retried)

	// Refcount hygiene survived the chaos: every store drained.
	for m := 0; m < 2; m++ {
		if err := grid.Broker(m).VerifyDrained(); err != nil {
			t.Fatalf("machine %d store not drained after chaos: %v", m, err)
		}
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d after chaos run", leaked)
	}

	// Stop stays idempotent after a chaotic run.
	if again := s.Stop(); again != rep {
		t.Fatal("second Stop returned a different report")
	}
}
