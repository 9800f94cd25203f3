package core_test

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// failoverAlgorithm is a deterministic learn-replica algorithm for failover
// tests: it consumes one batch per train, bumps its version, and broadcasts.
// crashAt > 0 makes the crashAt-th train return an error (a dying replica);
// stallAt > 0 makes the stallAt-th train hang for stallFor instead (a silent
// wedge — the failure mode only the heartbeat deadline detector catches). It
// restores checkpointed or echoed state, so respawned incarnations rejoin
// the committed version sequence.
type failoverAlgorithm struct {
	crashAt  int
	stallAt  int
	stallFor time.Duration

	mu       sync.Mutex
	pending  []*rollout.Batch
	version  int64
	weights  []float32
	trains   int
	consumed int64
}

// consumedSteps reports the rollout steps this instance actually trained on
// (errored trains excluded) — the ground truth the session report must match.
func (f *failoverAlgorithm) consumedSteps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.consumed
}

var _ core.Algorithm = (*failoverAlgorithm)(nil)

func (f *failoverAlgorithm) Name() string { return "failover" }

func (f *failoverAlgorithm) PrepareData(b *rollout.Batch) {
	f.mu.Lock()
	f.pending = append(f.pending, b)
	f.mu.Unlock()
}

func (f *failoverAlgorithm) Weights() *message.WeightsPayload {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &message.WeightsPayload{Version: f.version, Data: append([]float32(nil), f.weights...)}
}

func (f *failoverAlgorithm) RestoreWeights(version int64, data []float32) error {
	f.mu.Lock()
	f.version = version
	f.weights = append(f.weights[:0], data...)
	f.mu.Unlock()
	return nil
}

func (f *failoverAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	f.mu.Lock()
	if len(f.pending) == 0 {
		f.mu.Unlock()
		return core.TrainResult{}, false, nil
	}
	b := f.pending[0]
	f.pending = f.pending[1:]
	f.trains++
	trains := f.trains
	f.version++
	f.mu.Unlock()
	if f.crashAt > 0 && trains == f.crashAt {
		return core.TrainResult{}, false, errTrainBoom
	}
	if f.stallAt > 0 && trains == f.stallAt {
		time.Sleep(f.stallFor)
	}
	f.mu.Lock()
	f.consumed += int64(len(b.Steps))
	f.mu.Unlock()
	return core.TrainResult{StepsConsumed: len(b.Steps), Broadcast: true}, true, nil
}

// faultSpec configures the single faulty first incarnation that
// failoverFactories wires up. A plain value type (unlike failoverAlgorithm,
// which carries a mutex) so it can be passed by value.
type faultSpec struct {
	crashAt  int
	stallAt  int
	stallFor time.Duration
}

// failoverFactories wires a 2-replica failover deployment: the first factory
// call (learn replica 0's first incarnation) gets the configured fault,
// every later call — replica 1 and all respawns — runs clean. Explorers
// never fail.
func failoverFactories(fault faultSpec) (core.AlgorithmFactory, core.AgentFactory) {
	var calls atomic.Int32
	algF := func(seed int64) (core.Algorithm, error) {
		a := &failoverAlgorithm{weights: []float32{1}}
		if calls.Add(1) == 1 {
			a.crashAt = fault.crashAt
			a.stallAt = fault.stallAt
			a.stallFor = fault.stallFor
		}
		return a, nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1 << 30}, nil
	}
	return algF, agF
}

// TestLearnerFailoverStepAccounting: every incarnation's steps must count
// exactly once in the session report, whether the slot respawned (the retired
// incarnation's progress is folded into the slot when its successor is
// installed) or degraded permanently (the retiree stays installed and keeps
// counting directly). The report is compared against the ground truth the
// algorithm instances tracked themselves — a double-count fails the equality.
func TestLearnerFailoverStepAccounting(t *testing.T) {
	for _, tc := range []struct {
		name     string
		restarts int
	}{
		{name: "degraded-no-respawn", restarts: 0},
		{name: "respawned", restarts: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var algs []*failoverAlgorithm
			algF := func(seed int64) (core.Algorithm, error) {
				a := &failoverAlgorithm{weights: []float32{1}}
				mu.Lock()
				if len(algs) == 0 {
					a.crashAt = 2
				}
				algs = append(algs, a)
				mu.Unlock()
				return a, nil
			}
			agF := func(id int32, seed int64) (core.Agent, error) {
				return &faultyAgent{failAfter: 1 << 30}, nil
			}
			s, err := core.NewSession(core.Config{
				NumExplorers:       4,
				RolloutLen:         40,
				MaxSteps:           2000,
				MaxDuration:        60 * time.Second,
				Topology:           core.ReplicatedTopology(2),
				LearnerFailover:    true,
				MaxLearnerRestarts: tc.restarts,
				RestartBackoff:     2 * time.Millisecond,
				HeartbeatEvery:     20 * time.Millisecond,
			}, algF, agF, 25)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			s.Start()
			s.Wait()
			rep := s.Stop()
			if err := s.Err(); err != nil {
				t.Fatalf("session error: %v", err)
			}
			var actual int64
			mu.Lock()
			for _, a := range algs {
				actual += a.consumedSteps()
			}
			mu.Unlock()
			var reported int64
			for _, n := range rep.Fragments.LearnSteps {
				reported += n
			}
			if reported != actual {
				t.Fatalf("LearnSteps sum = %d, algorithms trained on %d — each incarnation must count exactly once", reported, actual)
			}
			if int64(rep.StepsConsumed) != actual {
				t.Fatalf("StepsConsumed = %d, algorithms trained on %d", rep.StepsConsumed, actual)
			}
		})
	}
}

// TestLearnerFailoverRespawn: a 2-replica topology with a crashing replica
// must quarantine it, re-dispatch its in-flight batches, respawn it from the
// fragment checkpoint, and still reach the step target with a clean channel.
func TestLearnerFailoverRespawn(t *testing.T) {
	algF, agF := failoverFactories(faultSpec{crashAt: 3})
	s, err := core.NewSession(core.Config{
		NumExplorers:       4,
		RolloutLen:         40,
		MaxSteps:           4000,
		MaxDuration:        60 * time.Second,
		Topology:           core.ReplicatedTopology(2),
		LearnerFailover:    true,
		MaxLearnerRestarts: 3,
		RestartBackoff:     2 * time.Millisecond,
		HeartbeatEvery:     20 * time.Millisecond,
		CheckpointPath:     filepath.Join(t.TempDir(), "failover.ckpt"),
		CheckpointEvery:    2,
	}, algF, agF, 21)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 4000 {
		t.Fatalf("StepsConsumed = %d, want >= 4000", rep.StepsConsumed)
	}
	fr := rep.Fragments
	if fr == nil {
		t.Fatal("fragmented run must report fragment measurements")
	}
	if fr.Quarantines < 1 {
		t.Fatalf("Quarantines = %d, want >= 1", fr.Quarantines)
	}
	if fr.Respawns < 1 {
		t.Fatalf("Respawns = %d, want >= 1", fr.Respawns)
	}
	if fr.Degraded != 0 {
		t.Fatalf("Degraded = %d, want 0 (budget never ran out)", fr.Degraded)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0; health:\n%s", leaked, rep.Channel.String())
	}
}

// TestLearnerFailoverDegradedBudgetZero: with a zero respawn budget a dead
// replica is quarantined and its slot degrades permanently; the run must
// complete N-1 on the survivor without a session error.
func TestLearnerFailoverDegradedBudgetZero(t *testing.T) {
	algF, agF := failoverFactories(faultSpec{crashAt: 2})
	s, err := core.NewSession(core.Config{
		NumExplorers:       4,
		RolloutLen:         40,
		MaxSteps:           3000,
		MaxDuration:        60 * time.Second,
		Topology:           core.ReplicatedTopology(2),
		LearnerFailover:    true,
		MaxLearnerRestarts: 0,
		RestartBackoff:     2 * time.Millisecond,
		HeartbeatEvery:     20 * time.Millisecond,
	}, algF, agF, 22)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v (degraded N-1 must not fail the session)", err)
	}
	if rep.StepsConsumed < 3000 {
		t.Fatalf("StepsConsumed = %d, want >= 3000", rep.StepsConsumed)
	}
	fr := rep.Fragments
	if fr.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", fr.Quarantines)
	}
	if fr.Respawns != 0 {
		t.Fatalf("Respawns = %d, want 0 (budget is zero)", fr.Respawns)
	}
	if fr.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", fr.Degraded)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
}

// TestLearnerFailoverDegradeCountedBeforeTeardown: the respawn budget, not
// the teardown, decides that a dead replica's slot degrades. The dead
// replica's receiver is held until the transport stops, so the supervisor's
// teardown wait is still open when the survivor reaches the step target and
// Stop closes shutdown. The degrade must be counted all the same.
func TestLearnerFailoverDegradeCountedBeforeTeardown(t *testing.T) {
	algF, agF := failoverFactories(faultSpec{crashAt: 2})
	s, err := core.NewSession(core.Config{
		NumExplorers:       4,
		RolloutLen:         40,
		MaxSteps:           3000,
		MaxDuration:        60 * time.Second,
		Topology:           core.ReplicatedTopology(2),
		LearnerFailover:    true,
		MaxLearnerRestarts: 0,
		RestartBackoff:     2 * time.Millisecond,
		HeartbeatEvery:     20 * time.Millisecond,
	}, algF, agF, 22)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.HoldLearnRecv(0)
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 3000 {
		t.Fatalf("StepsConsumed = %d, want >= 3000", rep.StepsConsumed)
	}
	fr := rep.Fragments
	if fr.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", fr.Quarantines)
	}
	if fr.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1: the degrade waited on the teardown", fr.Degraded)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
}

// TestLearnerFailoverHungReplicaDetected: a replica that silently wedges
// inside a training step never errors — only the heartbeat deadline detector
// can catch it. The detector must quarantine it and the run complete on the
// survivor.
func TestLearnerFailoverHungReplicaDetected(t *testing.T) {
	algF, agF := failoverFactories(faultSpec{stallAt: 2, stallFor: 1500 * time.Millisecond})
	s, err := core.NewSession(core.Config{
		NumExplorers:       4,
		RolloutLen:         40,
		MaxSteps:           1 << 40, // the test stops the run itself, after detection
		MaxDuration:        5 * time.Minute,
		Topology:           core.ReplicatedTopology(2),
		LearnerFailover:    true,
		MaxLearnerRestarts: 0,
		RestartBackoff:     2 * time.Millisecond,
		HeartbeatEvery:     10 * time.Millisecond, // 40ms deadline, well under the stall
	}, algF, agF, 23)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()

	// The wedged replica produces no error — detection must come from the
	// heartbeat deadline alone.
	_, caster := s.Fragments()
	waitUntil(t, 10*time.Second, "the hung replica to be quarantined", func() bool {
		return caster.Quarantines() >= 1
	})

	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed == 0 {
		t.Fatal("StepsConsumed = 0, want training progress around the hang")
	}
	fr := rep.Fragments
	if fr.Quarantines < 1 {
		t.Fatalf("Quarantines = %d, want >= 1 (the hung replica must be detected)", fr.Quarantines)
	}
	if fr.Respawns != 0 {
		t.Fatalf("Respawns = %d, want 0 (budget is zero)", fr.Respawns)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
}

// TestStopDuringLearnerFailoverReturnsPromptly: Session.Stop issued while a
// learn-replica supervisor sleeps out a long respawn backoff must interrupt
// it, return within the 5s bound, and stay idempotent.
func TestStopDuringLearnerFailoverReturnsPromptly(t *testing.T) {
	algF, agF := failoverFactories(faultSpec{crashAt: 1})
	s, err := core.NewSession(core.Config{
		NumExplorers:       2,
		RolloutLen:         20,
		MaxSteps:           1 << 40,
		MaxDuration:        5 * time.Minute,
		Topology:           core.ReplicatedTopology(2),
		LearnerFailover:    true,
		MaxLearnerRestarts: 10,
		RestartBackoff:     30 * time.Second,
		HeartbeatEvery:     20 * time.Millisecond,
	}, algF, agF, 24)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()

	// Wait until the failure has been quarantined — the supervisor records
	// it on the broadcaster before entering the backoff sleep.
	_, caster := s.Fragments()
	waitUntil(t, 10*time.Second, "the crashed replica to be quarantined", func() bool {
		return caster.Quarantines() >= 1
	})

	stopStart := time.Now()
	rep := s.Stop()
	if elapsed := time.Since(stopStart); elapsed > 5*time.Second {
		t.Fatalf("Stop took %v with a %v respawn backoff pending — the backoff sleep must be interrupted",
			elapsed, 30*time.Second)
	}
	if again := s.Stop(); again != rep {
		t.Fatal("Stop is not idempotent: second call returned a different report")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v (a mid-failover Stop is not a failure)", err)
	}
	if rep.Fragments.Quarantines < 1 {
		t.Fatalf("Quarantines = %d, want >= 1", rep.Fragments.Quarantines)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
}
