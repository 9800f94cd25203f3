package faultinject_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/fabric"
	"xingtian/internal/faultinject"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// replicaAlgorithm is the learn-replica algorithm of the fragment chaos run:
// it trains on every batch, bumps a version, rebroadcasts, and crashes where
// its injected schedule dictates. It restores checkpointed/echoed state so a
// respawned incarnation rejoins the committed version sequence.
type replicaAlgorithm struct {
	crash *faultinject.AgentFault

	mu      sync.Mutex
	pending []*rollout.Batch
	version int64
	weights []float32
}

var _ core.Algorithm = (*replicaAlgorithm)(nil)

func (r *replicaAlgorithm) Name() string { return "chaos-replica" }

func (r *replicaAlgorithm) PrepareData(b *rollout.Batch) {
	r.mu.Lock()
	r.pending = append(r.pending, b)
	r.mu.Unlock()
}

func (r *replicaAlgorithm) Weights() *message.WeightsPayload {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &message.WeightsPayload{Version: r.version, Data: append([]float32(nil), r.weights...)}
}

func (r *replicaAlgorithm) RestoreWeights(version int64, data []float32) error {
	r.mu.Lock()
	r.version = version
	r.weights = append(r.weights[:0], data...)
	r.mu.Unlock()
	return nil
}

func (r *replicaAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	if r.crash.ShouldFail() {
		return core.TrainResult{}, false, errInjectedCrash
	}
	r.mu.Lock()
	if len(r.pending) == 0 {
		r.mu.Unlock()
		return core.TrainResult{}, false, nil
	}
	b := r.pending[0]
	r.pending = r.pending[1:]
	r.version++
	r.mu.Unlock()
	return core.TrainResult{StepsConsumed: len(b.Steps), Broadcast: true}, true, nil
}

// TestChaosFragmentTopology runs a 2-learner IMPALA-style fragment topology
// over a real three-machine TCP fabric while the injector resets links every
// K writes and kills learn replica 0 mid-training. Failover must quarantine
// the dead replica, re-dispatch its in-flight batches, respawn it, and still
// reach the step target with every store drained and zero drops beyond
// backpressure shedding and injected link failures.
func TestChaosFragmentTopology(t *testing.T) {
	const maxSteps = 2000

	inj := faultinject.New(faultinject.Config{
		Seed:                  17,
		ConnResetEveryKWrites: 40,
	})
	grid, err := fabric.NewGrid(3, fabric.GridOptions{
		ConnWrapper:    inj.WrapConn,
		RedialAttempts: 500,
		RedialBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}

	// The first factory call is learn replica 0's first incarnation — it gets
	// the kill schedule. Replica 1 and every respawn run clean.
	var algCalls atomic.Int32
	algF := func(seed int64) (core.Algorithm, error) {
		a := &replicaAlgorithm{crash: inj.NewCrash(0), weights: []float32{1}}
		if algCalls.Add(1) == 1 {
			a.crash = inj.NewCrash(5)
		}
		return a, nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &chaosAgent{fault: inj.NewCrash(0)}, nil // explorers never fail
	}

	s, err := core.NewSession(core.Config{
		NumExplorers: 4,
		Machines:     3,
		Transport:    grid,
		RolloutLen:   20,
		MaxSteps:     maxSteps,
		MaxDuration:  60 * time.Second,
		Topology: core.Topology{
			Learners:         2,
			BroadcastMachine: 0,
			LearnMachines:    []int{1, 2},
			MaxStaleness:     core.StalenessUnbounded,
		},
		LearnerFailover:    true,
		MaxLearnerRestarts: 3,
		RestartBackoff:     2 * time.Millisecond,
		// Generous cadence: a dead replica is detected through its error
		// channel, so heartbeats only need to catch true hangs — and a loaded
		// -race CI worker must not trip the deadline on scheduling noise.
		HeartbeatEvery: 200 * time.Millisecond,
	}, algF, agF, 2)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()

	// Drop taxonomy before Stop: beyond backpressure shedding, only forward
	// errors from the injected link resets are legitimate on this run — a
	// privileged weights/control message must never have been dropped.
	live := s.ChannelHealth()
	for _, bm := range live.Brokers {
		d := bm.Drops
		if other := d.Total() - d.ShedOldest - d.StoreBudget - d.ForwardError; other != 0 {
			t.Errorf("machine %d dropped %d messages outside backpressure and injected link faults: %+v",
				bm.MachineID, other, d)
		}
	}

	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error after fragment chaos run: %v", err)
	}
	if rep.StepsConsumed < maxSteps {
		t.Fatalf("StepsConsumed = %d, want >= %d (training did not survive the replica kill)",
			rep.StepsConsumed, maxSteps)
	}
	fr := rep.Fragments
	if fr == nil {
		t.Fatal("fragmented chaos run must report fragment measurements")
	}
	if fr.Quarantines < 1 {
		t.Fatalf("Quarantines = %d, want >= 1 (replica 0 was killed)", fr.Quarantines)
	}
	if fr.Respawns < 1 {
		t.Fatalf("Respawns = %d, want >= 1 (the budget allows a respawn)", fr.Respawns)
	}
	stats := inj.Stats()
	if stats.ConnResets < 1 {
		t.Fatalf("injector never reset a connection: %+v", stats)
	}
	if stats.AgentFaults != 1 {
		t.Fatalf("AgentFaults = %d, want 1 (the single replica kill)", stats.AgentFaults)
	}
	t.Logf("fragment chaos run: %d steps, %d quarantines, %d redispatches, %d respawns, %d resets",
		rep.StepsConsumed, fr.Quarantines, fr.Redispatches, fr.Respawns, stats.ConnResets)

	// Refcount hygiene survived the failover: every store drained.
	for m := 0; m < 3; m++ {
		if err := grid.Broker(m).VerifyDrained(); err != nil {
			t.Fatalf("machine %d store not drained after fragment chaos: %v", m, err)
		}
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d after fragment chaos run", leaked)
	}

	// Stop stays idempotent after a chaotic failover run.
	if again := s.Stop(); again != rep {
		t.Fatal("second Stop returned a different report")
	}
}
