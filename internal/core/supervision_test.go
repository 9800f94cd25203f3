package core_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/fabric"
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

// gridSession starts a 2-learner replicated session over a 2-machine TCP
// grid, with or without machine failover.
func gridSession(t *testing.T, machineFailover bool, restarts int, agF core.AgentFactory) *core.Session {
	t.Helper()
	g, err := fabric.NewGrid(2, fabric.GridOptions{})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	algF := func(seed int64) (core.Algorithm, error) {
		return &failoverAlgorithm{weights: []float32{1}}, nil
	}
	s, err := core.NewSession(core.Config{
		NumExplorers:        2,
		RolloutLen:          10,
		MaxSteps:            1 << 40,
		MaxDuration:         time.Minute,
		Machines:            2,
		Transport:           g,
		Topology:            core.ReplicatedTopology(2),
		MachineFailover:     machineFailover,
		MaxExplorerRestarts: restarts,
		RestartBackoff:      time.Millisecond,
	}, algF, agF, 42)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	return s
}

// TestMachineFailoverSurfacesAgentError: with a zero restart budget an
// explorer's agent error surfaces in Err whether or not machine failover is
// armed. Machine failover supervises every explorer slot, and a failure on a
// live machine spends budget the same way it does without it.
func TestMachineFailoverSurfacesAgentError(t *testing.T) {
	for _, mf := range []bool{false, true} {
		t.Run(map[bool]string{false: "no-failover", true: "machine-failover"}[mf], func(t *testing.T) {
			s := gridSession(t, mf, 0, func(id int32, seed int64) (core.Agent, error) {
				if id == 0 {
					return &faultyAgent{failAfter: 2}, nil
				}
				return &faultyAgent{failAfter: 1 << 30}, nil
			})
			waitUntil(t, 10*time.Second, "the agent error to surface in Err", func() bool {
				return s.Err() != nil
			})
			rep := s.Stop()
			if err := s.Err(); !errors.Is(err, errAgentBoom) {
				t.Fatalf("Err = %v, want the agent error", err)
			}
			if rep.ExplorerRestarts != 0 {
				t.Fatalf("ExplorerRestarts = %d, want 0 (no budget)", rep.ExplorerRestarts)
			}
			if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
				t.Fatalf("TotalLeaked = %d", leaked)
			}
		})
	}
}

var errFactoryBoom = errors.New("factory boom")

// TestMachineFailoverSurfacesRestartFailure: an explorer restart whose
// agent factory fails on a live machine surfaces in Err, whether or not
// machine failover is armed — no machine verdict will come to move the slot,
// so nothing may wait for one.
func TestMachineFailoverSurfacesRestartFailure(t *testing.T) {
	for _, mf := range []bool{false, true} {
		t.Run(map[bool]string{false: "no-failover", true: "machine-failover"}[mf], func(t *testing.T) {
			var builds atomic.Int32
			s := gridSession(t, mf, 3, func(id int32, seed int64) (core.Agent, error) {
				if id != 0 {
					return &faultyAgent{failAfter: 1 << 30}, nil
				}
				if builds.Add(1) > 1 {
					return nil, errFactoryBoom
				}
				return &faultyAgent{failAfter: 2}, nil
			})
			waitUntil(t, 10*time.Second, "the restart failure to surface in Err", func() bool {
				return s.Err() != nil
			})
			rep := s.Stop()
			err := s.Err()
			if !errors.Is(err, errFactoryBoom) || !strings.Contains(err.Error(), "restart explorer") {
				t.Fatalf("Err = %v, want the failed restart of explorer 0", err)
			}
			if rep.ExplorerRestarts != 0 {
				t.Fatalf("ExplorerRestarts = %d, want 0 (the restart failed)", rep.ExplorerRestarts)
			}
			if got := builds.Load(); got != 2 {
				t.Fatalf("explorer 0's factory called %d times, want 2 (no retry after a failed restart)", got)
			}
		})
	}
}

// TestDegradedExplorerDetached: an explorer slot whose budget runs out gives
// up its name while the run goes on, so the weights the learner or the
// broadcaster keeps sending to every explorer are dropped rather than
// queued, pinned in the store, for a reader that is gone.
func TestDegradedExplorerDetached(t *testing.T) {
	for _, topo := range []core.Topology{{}, core.ReplicatedTopology(2)} {
		t.Run(map[int]string{0: "fused", 2: "replicated"}[topo.Learners], func(t *testing.T) {
			algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
			s, err := core.NewSession(core.Config{
				NumExplorers:        2,
				RolloutLen:          10,
				MaxSteps:            1 << 40,
				MaxDuration:         10 * time.Second,
				Topology:            topo,
				MaxExplorerRestarts: 1,
				RestartBackoff:      time.Millisecond,
			}, algF, func(id int32, seed int64) (core.Agent, error) {
				if id == 0 {
					return &faultyAgent{failAfter: 1}, nil
				}
				return &faultyAgent{failAfter: 1 << 30}, nil
			}, 12)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			trainIters := func() (n int64) {
				if l := s.Learner(); l != nil {
					return l.TrainIters()
				}
				learns, _ := s.Fragments()
				for _, l := range learns {
					n += l.TrainIters()
				}
				return n
			}
			s.Start()
			waitUntil(t, 5*time.Second, "explorer 0's budget to run out", func() bool {
				return s.Err() != nil
			})
			iters := trainIters()
			time.Sleep(200 * time.Millisecond)
			depth := 0
			for _, bm := range s.ChannelHealth().Brokers {
				depth += bm.IDQueueDepths[core.ExplorerName(0)]
			}
			trained := trainIters() - iters
			rep := s.Stop()
			if trained == 0 {
				t.Fatalf("training stopped after explorer 0 degraded")
			}
			if depth != 0 {
				t.Fatalf("explorer 0's ID queue holds %d messages after %d more train iterations, want 0 (name unregistered)", depth, trained)
			}
			if rep.RestartBudgetExhausted != 1 {
				t.Fatalf("RestartBudgetExhausted = %d, want 1", rep.RestartBudgetExhausted)
			}
			if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
				t.Fatalf("TotalLeaked = %d", leaked)
			}
		})
	}
}
