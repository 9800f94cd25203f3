package core_test

import (
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/netsim"
)

// TestSessionWeightDeltaEndToEnd: a full multi-machine session must train
// normally — deltas applied in sequence, zero
// privileged drops, refcount-clean shutdown.
func TestSessionWeightDeltaEndToEnd(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	s, err := core.NewSession(core.Config{
		NumExplorers: 4,
		Machines:     3,
		RolloutLen:   40,
		MaxSteps:     2000,
		MaxDuration:  30 * time.Second,
		Net:          netsim.Config{Bandwidth: 1 << 30, TimeScale: 1},
	}, algF, agF, 11)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 2000 {
		t.Fatalf("StepsConsumed = %d, want >= 2000", rep.StepsConsumed)
	}
	ps := s.Learner().PlaneStats()
	if ps.Delta == 0 {
		t.Fatalf("plane never sent a delta: %+v", ps)
	}
	if ps.Dense == 0 {
		t.Fatal("plane never sent the dense bootstrap")
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
	// Shutdown legitimately drains queues; what the weight plane must never
	// produce is a corrupt body or a lost ref.
	for _, b := range rep.Channel.Brokers {
		if b.Drops.RecvError != 0 || b.Drops.StoreMiss != 0 {
			t.Fatalf("machine %d: recvError=%d storeMiss=%d",
				b.MachineID, b.Drops.RecvError, b.Drops.StoreMiss)
		}
	}
}

// TestSessionWeightDeltaConvergenceParity: with the same seed, the delta
// plane must not change what the learner trains on — returns stay in family
// with a run that broadcasts dense snapshots only (both reach episodes and
// comparable mean return).
func TestSessionWeightDeltaConvergenceParity(t *testing.T) {
	run := func(delta bool) *core.Report {
		algF, agF := quickDQNFactories(t)
		cfg := core.Config{
			NumExplorers: 2,
			RolloutLen:   50,
			MaxSteps:     3000,
			MaxDuration:  30 * time.Second,
		}
		if !delta {
			cfg = core.DenseWeights(cfg)
		}
		rep, err := core.Run(cfg, algF, agF, 21)
		if err != nil {
			t.Fatalf("Run(delta=%v): %v", delta, err)
		}
		return rep
	}
	dense := run(false)
	deltaRep := run(true)
	if deltaRep.Episodes == 0 || dense.Episodes == 0 {
		t.Fatalf("episodes: dense=%d delta=%d", dense.Episodes, deltaRep.Episodes)
	}
	// Async schedules differ, so exact equality is not expected; a delta
	// run that collapses to a fraction of the dense return means the
	// reconstruction chain corrupted the weights.
	if deltaRep.MeanReturn < dense.MeanReturn/3 {
		t.Fatalf("delta MeanReturn %.2f collapsed vs dense %.2f", deltaRep.MeanReturn, dense.MeanReturn)
	}
}

// TestSessionWeightDeltaIsTheDefault: a fused session with the default
// Config broadcasts deltas.
func TestSessionWeightDeltaIsTheDefault(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	s, err := core.NewSession(core.Config{
		NumExplorers: 2,
		RolloutLen:   50,
		MaxSteps:     3000,
		MaxDuration:  30 * time.Second,
	}, algF, agF, 21)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if ps := s.Learner().PlaneStats(); ps.Delta == 0 || ps.Resyncs != 0 {
		t.Fatalf("default plane %+v, want deltas and no resyncs", ps)
	}
}

// TestSessionWeightDeltaWrappedAgent: the ConvergenceParity delta run with
// every agent behind a wrapper that embeds core.Agent and adds nothing. The
// explorer applies each delta to its own mirror and installs the result
// through SetWeights, so the wrapper changes nothing: every delta lands and
// none is NACKed into a dense resync.
func TestSessionWeightDeltaWrappedAgent(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	wrapped := func(id int32, seed int64) (core.Agent, error) {
		a, err := agF(id, seed)
		return struct{ core.Agent }{a}, err
	}
	s, err := core.NewSession(core.Config{
		NumExplorers: 2,
		RolloutLen:   50,
		MaxSteps:     3000,
		MaxDuration:  30 * time.Second,
	}, algF, wrapped, 21)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if ps := s.Learner().PlaneStats(); ps.Resyncs != 0 || ps.Delta == 0 {
		t.Fatalf("wrapped agents: %+v, want deltas and no resyncs", ps)
	}
}

// TestSessionWeightDeltaSurvivesRestarts: supervised explorer restarts lose
// the explorer's mirror; the NACK/ack-regression path must resync them with a
// dense snapshot instead of wedging or failing the session.
func TestSessionWeightDeltaSurvivesRestarts(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	s, err := core.NewSession(core.Config{
		NumExplorers:        2,
		RolloutLen:          40,
		MaxSteps:            1_000_000, // bounded by wall time
		MaxDuration:         700 * time.Millisecond,
		MaxExplorerRestarts: 3,
	}, algF, agF, 31)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed == 0 {
		t.Fatal("no steps consumed")
	}
}
