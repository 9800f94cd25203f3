package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/rollout"
)

// restartableAgentFactory fails the first incarnation of each of the slots
// after a few rollouts and hands out healthy agents afterwards — the
// crash-then-recover shape supervision exists for. The healthy agents hold
// their first rollout until every slot has one: a replacement rolls out
// only after its restart is counted, so the step target cannot be reached
// while another slot's restart still waits out its backoff.
func restartableAgentFactory(failFirstAfter, slots int) core.AgentFactory {
	var mu sync.Mutex
	built := map[int32]int{}
	healthy := 0
	ready := make(chan struct{})
	arrive := func() {
		mu.Lock()
		defer mu.Unlock()
		if healthy++; healthy == slots {
			close(ready)
		}
	}
	return func(id int32, seed int64) (core.Agent, error) {
		mu.Lock()
		n := built[id]
		built[id]++
		mu.Unlock()
		if n == 0 {
			return &faultyAgent{failAfter: failFirstAfter}, nil
		}
		return &gatedAgent{faultyAgent: faultyAgent{failAfter: 1 << 30}, arrive: arrive, ready: ready}, nil
	}
}

// gatedAgent is a faultyAgent whose first rollout waits for ready.
type gatedAgent struct {
	faultyAgent
	once   sync.Once
	arrive func()
	ready  <-chan struct{}
}

func (a *gatedAgent) Rollout(n int) (*rollout.Batch, error) {
	a.once.Do(func() {
		a.arrive()
		select {
		case <-a.ready:
		case <-time.After(5 * time.Second):
			// A slot that never restarted fails the assertions instead of
			// wedging this explorer's Stop.
		}
	})
	return a.faultyAgent.Rollout(n)
}

func TestExplorerRestartReachesStepTarget(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	rep, err := core.Run(core.Config{
		NumExplorers:        2,
		RolloutLen:          10,
		MaxSteps:            400,
		MaxDuration:         10 * time.Second,
		MaxExplorerRestarts: 3,
		RestartBackoff:      time.Millisecond,
	}, algF, restartableAgentFactory(2, 2), 7)
	if err != nil {
		t.Fatalf("Run: %v (restarts should have absorbed the agent errors)", err)
	}
	if rep.StepsConsumed < 400 {
		t.Fatalf("StepsConsumed = %d, want >= 400", rep.StepsConsumed)
	}
	if rep.ExplorerRestarts != 2 {
		t.Fatalf("ExplorerRestarts = %d, want 2 (one crash per slot)", rep.ExplorerRestarts)
	}
	if !strings.Contains(rep.RestartLastError, "agent boom") {
		t.Fatalf("RestartLastError = %q, want the handled agent error", rep.RestartLastError)
	}
	if rep.RestartBudgetExhausted != 0 {
		t.Fatalf("RestartBudgetExhausted = %d, want 0", rep.RestartBudgetExhausted)
	}
	if got := rep.Channel.Supervision.ExplorerRestarts; got != 2 {
		t.Fatalf("ClusterHealth supervision restarts = %d, want 2", got)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d after restarts (teardown must release refs)", leaked)
	}
}

func TestRestartBudgetExhaustionFailsFast(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	// Every incarnation dies after one rollout: the budget must run out and
	// the slot's last error must surface through Err.
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers:        1,
		RolloutLen:          10,
		MaxSteps:            1 << 40,
		MaxDuration:         10 * time.Second,
		MaxExplorerRestarts: 2,
		RestartBackoff:      time.Millisecond,
	}, algF, agF, 8)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	waitUntil(t, 5*time.Second, "budget exhaustion to surface in Err", func() bool {
		return s.Err() != nil
	})
	rep := s.Stop()
	err = s.Err()
	if !strings.Contains(err.Error(), "restart budget") || !errors.Is(err, errAgentBoom) {
		t.Fatalf("Err = %v, want budget exhaustion wrapping the agent error", err)
	}
	if rep.ExplorerRestarts != 2 {
		t.Fatalf("ExplorerRestarts = %d, want 2 (the full budget)", rep.ExplorerRestarts)
	}
	if rep.RestartBudgetExhausted != 1 {
		t.Fatalf("RestartBudgetExhausted = %d, want 1", rep.RestartBudgetExhausted)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d", leaked)
	}
}

func TestSupervisionOffPreservesFailFast(t *testing.T) {
	// MaxExplorerRestarts = 0: the historical semantics — the error surfaces,
	// nothing restarts, and the factory is called exactly once per slot.
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	var mu sync.Mutex
	builds := 0
	agF := func(id int32, seed int64) (core.Agent, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return &faultyAgent{failAfter: 2}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers: 1,
		RolloutLen:   10,
		MaxSteps:     1 << 40,
		MaxDuration:  5 * time.Second,
	}, algF, agF, 9)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	time.Sleep(200 * time.Millisecond)
	rep := s.Stop()
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "agent boom") {
		t.Fatalf("Err = %v, want the raw agent error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if builds != 1 {
		t.Fatalf("agent factory called %d times, want 1 (no restarts without a budget)", builds)
	}
	if rep.ExplorerRestarts != 0 {
		t.Fatalf("ExplorerRestarts = %d, want 0", rep.ExplorerRestarts)
	}
}
