package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// faultyAgent errs after a configurable number of rollouts.
type faultyAgent struct {
	failAfter int
	calls     int
}

var _ core.Agent = (*faultyAgent)(nil)

var errAgentBoom = errors.New("agent boom")

func (a *faultyAgent) Rollout(n int) (*rollout.Batch, error) {
	a.calls++
	if a.calls > a.failAfter {
		return nil, errAgentBoom
	}
	steps := make([]rollout.Step, n)
	return &rollout.Batch{Steps: steps}, nil
}

func (a *faultyAgent) SetWeights(*message.WeightsPayload) error { return nil }
func (a *faultyAgent) WeightsVersion() int64                    { return 0 }
func (a *faultyAgent) OnPolicy() bool                           { return false }
func (a *faultyAgent) EpisodeStats() (int64, float64)           { return 0, 0 }

// faultyAlgorithm errs on its first training attempt with data.
type faultyAlgorithm struct {
	batches int
}

var _ core.Algorithm = (*faultyAlgorithm)(nil)

var errTrainBoom = errors.New("train boom")

func (f *faultyAlgorithm) Name() string                          { return "faulty" }
func (f *faultyAlgorithm) PrepareData(b *rollout.Batch)          { f.batches++ }
func (f *faultyAlgorithm) RestoreWeights(int64, []float32) error { return nil }
func (f *faultyAlgorithm) Weights() *message.WeightsPayload {
	return &message.WeightsPayload{Data: []float32{1}}
}

func (f *faultyAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	if f.batches == 0 {
		return core.TrainResult{}, false, nil
	}
	return core.TrainResult{}, false, errTrainBoom
}

// countingAlgorithm trains normally, consuming whatever arrives.
type countingAlgorithm struct {
	pending []*rollout.Batch
}

var _ core.Algorithm = (*countingAlgorithm)(nil)

func (c *countingAlgorithm) Name() string                          { return "counting" }
func (c *countingAlgorithm) PrepareData(b *rollout.Batch)          { c.pending = append(c.pending, b) }
func (c *countingAlgorithm) RestoreWeights(int64, []float32) error { return nil }
func (c *countingAlgorithm) Weights() *message.WeightsPayload {
	return &message.WeightsPayload{Data: []float32{1}}
}

func (c *countingAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	if len(c.pending) == 0 {
		return core.TrainResult{}, false, nil
	}
	b := c.pending[0]
	c.pending = c.pending[1:]
	return core.TrainResult{StepsConsumed: len(b.Steps), Broadcast: true, Targets: []int32{b.ExplorerID}}, true, nil
}

func TestAgentErrorSurfacesInSession(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 2}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers: 1,
		RolloutLen:   10,
		MaxSteps:     1 << 40,
		MaxDuration:  5 * time.Second,
	}, algF, agF, 1)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	// The explorer dies after 2 fragments; wait out the clock.
	time.Sleep(300 * time.Millisecond)
	s.Stop()
	err = s.Err()
	if err == nil {
		t.Fatal("agent failure not surfaced")
	}
	if !strings.Contains(err.Error(), "agent boom") {
		t.Fatalf("Err = %v, want agent boom", err)
	}
}

func TestAlgorithmErrorStopsLearner(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &faultyAlgorithm{}, nil }
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1 << 30}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers: 1,
		RolloutLen:   10,
		MaxSteps:     1 << 40,
		MaxDuration:  5 * time.Second,
	}, algF, agF, 2)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	timer := time.NewTimer(3 * time.Second)
	defer timer.Stop()
	select {
	case <-s.Learner().Done():
	case <-timer.C:
		t.Fatal("learner did not stop on training error")
	}
	s.Stop()
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "train boom") {
		t.Fatalf("Err = %v, want train boom", err)
	}
}

func TestTargetedBroadcastReachesOnlyProducer(t *testing.T) {
	// countingAlgorithm broadcasts to the producing explorer only; with two
	// explorers both must still make progress (each gets its own weights).
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1 << 30}, nil
	}
	rep, err := core.Run(core.Config{
		NumExplorers: 2,
		RolloutLen:   10,
		MaxSteps:     400,
		MaxDuration:  5 * time.Second,
	}, algF, agF, 3)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.StepsConsumed < 400 {
		t.Fatalf("StepsConsumed = %d", rep.StepsConsumed)
	}
}

func TestSessionStopIsIdempotent(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1 << 30}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers: 1,
		RolloutLen:   5,
		MaxSteps:     50,
		MaxDuration:  5 * time.Second,
	}, algF, agF, 4)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if rep.StepsConsumed < 50 {
		t.Fatalf("StepsConsumed = %d", rep.StepsConsumed)
	}
	// A second Stop must be a no-op returning the same report, not a second
	// teardown (double channel-close, double-counted drains, a fresh
	// duration measurement...).
	again := s.Stop()
	if again != rep {
		t.Fatal("second Stop returned a different *Report")
	}
	if again.Duration != rep.Duration || again.StepsConsumed != rep.StepsConsumed {
		t.Fatalf("second Stop re-measured the run: %+v vs %+v", again, rep)
	}
	// Concurrent Stops settle on the same report too.
	reports := make(chan *core.Report, 4)
	for i := 0; i < 4; i++ {
		go func() { reports <- s.Stop() }()
	}
	for i := 0; i < 4; i++ {
		if r := <-reports; r != rep {
			t.Fatal("concurrent Stop returned a different *Report")
		}
	}
}
