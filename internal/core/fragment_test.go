package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/checkpoint"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/fabric"
	"xingtian/internal/faultinject"
	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/rollout"
)

func quickDDPGFactories(t *testing.T) (core.AlgorithmFactory, core.AgentFactory) {
	t.Helper()
	e := env.NewPendulum(0)
	spec := algorithm.ContinuousSpecFor(e)
	algF := func(seed int64) (core.Algorithm, error) {
		cfg := algorithm.DefaultDDPGConfig()
		cfg.TrainStart = 100
		cfg.TrainEvery = 2
		cfg.BatchSize = 16
		return algorithm.NewDDPG(spec, cfg, seed), nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		runner := algorithm.NewContinuousEnvRunner(env.NewPendulum(seed))
		return algorithm.NewDDPGAgent(spec, runner, seed), nil
	}
	return algF, agF
}

// TestFragmentFusedCompatTopology: the zero-value Topology must keep the
// legacy single-Learner loop — same code path as the seed, so compatibility
// is bit-for-bit by construction.
func TestFragmentFusedCompatTopology(t *testing.T) {
	t.Run("zero-value", func(t *testing.T) {
		algF, agF := quickDQNFactories(t)
		s, err := core.NewSession(core.Config{
			NumExplorers: 2,
			RolloutLen:   50,
			MaxSteps:     1000,
			MaxDuration:  30 * time.Second,
			Topology:     core.Topology{},
		}, algF, agF, 1)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if s.Learner() == nil {
			t.Fatal("fused topology must run the legacy Learner")
		}
		if learns, _ := s.Fragments(); learns != nil {
			t.Fatal("fused topology must not build the fragment runtime")
		}
		s.Start()
		s.Wait()
		rep := s.Stop()
		if err := s.Err(); err != nil {
			t.Fatalf("session error: %v", err)
		}
		if rep.StepsConsumed < 1000 {
			t.Fatalf("StepsConsumed = %d, want >= 1000", rep.StepsConsumed)
		}
		if rep.Fragments != nil {
			t.Fatal("fused run must not report fragment measurements")
		}
	})
}

// TestFragmentRuntimeAllAlgorithms: all four zoo algorithms must run
// unchanged on the fragment runtime (single learn replica), reach their step
// goal, and leave the channel refcount-clean.
func TestFragmentRuntimeAllAlgorithms(t *testing.T) {
	cases := []struct {
		name      string
		factories func() (core.AlgorithmFactory, core.AgentFactory)
		explorers int
		rollout   int
		maxSteps  int64
	}{
		{"DQN", func() (core.AlgorithmFactory, core.AgentFactory) { return quickDQNFactories(t) }, 2, 50, 1000},
		{"IMPALA", func() (core.AlgorithmFactory, core.AgentFactory) { return quickIMPALAFactories(t) }, 2, 40, 1200},
		{"PPO", func() (core.AlgorithmFactory, core.AgentFactory) { return quickPPOFactories(t, 2) }, 2, 64, 1280},
		{"DDPG", func() (core.AlgorithmFactory, core.AgentFactory) { return quickDDPGFactories(t) }, 2, 50, 800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algF, agF := tc.factories()
			s, err := core.NewSession(core.Config{
				NumExplorers: tc.explorers,
				RolloutLen:   tc.rollout,
				MaxSteps:     tc.maxSteps,
				MaxDuration:  60 * time.Second,
				Topology:     core.Topology{Learners: 1, MaxStaleness: core.StalenessUnbounded},
			}, algF, agF, 11)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			if s.Learner() != nil {
				t.Fatal("fragmented topology must not build the legacy Learner")
			}
			s.Start()
			s.Wait()
			// An algorithm that trains many times per rollout (e.g. DQN off
			// its replay buffer) can hit MaxSteps before the broadcast
			// fragment is ever scheduled; its queued weight pushes are still
			// in flight. Wait for the first aggregation so the assertion
			// checks wiring, not goroutine scheduling.
			_, caster := s.Fragments()
			waitUntil(t, 10*time.Second, "first aggregation", func() bool {
				return caster.Aggregations() > 0
			})
			rep := s.Stop()
			if err := s.Err(); err != nil {
				t.Fatalf("session error: %v", err)
			}
			if rep.StepsConsumed < tc.maxSteps {
				t.Fatalf("StepsConsumed = %d, want >= %d", rep.StepsConsumed, tc.maxSteps)
			}
			if rep.Fragments == nil {
				t.Fatal("fragmented run must report fragment measurements")
			}
			if rep.Fragments.Dispatched == 0 {
				t.Fatal("explorers dispatched nothing")
			}
			if rep.Fragments.Aggregations == 0 {
				t.Fatal("broadcast fragment never aggregated")
			}
			if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
				t.Fatalf("TotalLeaked = %d, want 0; health:\n%s", leaked, rep.Channel.String())
			}
		})
	}
}

// TestFragmentTwoLearnerIMPALA: a replicated topology must spread training
// across both learn replicas and aggregate their weights.
func TestFragmentTwoLearnerIMPALA(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	s, err := core.NewSession(core.Config{
		NumExplorers: 4,
		RolloutLen:   40,
		MaxSteps:     4000,
		MaxDuration:  60 * time.Second,
		Topology:     core.ReplicatedTopology(2),
	}, algF, agF, 12)
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
	if fr == nil || len(fr.LearnSteps) != 2 {
		t.Fatalf("Fragments = %+v, want 2 learn replicas", fr)
	}
	for i, steps := range fr.LearnSteps {
		if steps == 0 {
			t.Fatalf("learn replica %d consumed no steps (dispatch must round-robin)", i)
		}
	}
	if fr.Aggregations < 2 {
		t.Fatalf("Aggregations = %d, want >= 2", fr.Aggregations)
	}
	if fr.CommittedVersion == 0 {
		t.Fatal("committed version never advanced")
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d, want 0", leaked)
	}
}

// restoreCounter is an IMPALA learner that counts the installs reaching it.
type restoreCounter struct {
	*algorithm.IMPALA
	restores *atomic.Int64
}

func (r restoreCounter) RestoreWeights(version int64, data []float32) error {
	r.restores.Add(1)
	return r.IMPALA.RestoreWeights(version, data)
}

// TestReplicaInstallsEchoThroughWrapper: learn replicas whose algorithms sit
// behind a wrapper that embeds core.Algorithm and adds nothing still install
// the broadcaster's aggregate echoes, because RestoreWeights is part of
// core.Algorithm and the wrapper promotes it.
func TestReplicaInstallsEchoThroughWrapper(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	var restores atomic.Int64
	wrapped := func(seed int64) (core.Algorithm, error) {
		alg, err := algF(seed)
		return struct{ core.Algorithm }{restoreCounter{alg.(*algorithm.IMPALA), &restores}}, err
	}
	rep, err := core.Run(core.Config{
		NumExplorers: 2,
		RolloutLen:   40,
		MaxSteps:     2000,
		MaxDuration:  60 * time.Second,
		Topology:     core.ReplicatedTopology(2),
	}, wrapped, agF, 12)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Fragments == nil || rep.Fragments.Aggregations == 0 {
		t.Fatalf("Fragments = %+v, want aggregations", rep.Fragments)
	}
	if n := restores.Load(); n == 0 {
		t.Fatalf("%d aggregations, but no echo reached the wrapped algorithm", rep.Fragments.Aggregations)
	}
}

// TestFragmentStalenessBound is the bounded-staleness property test: for
// every K, no learn replica may ever observe a rollout more than K weight
// versions behind the committed version stamped at dispatch; K=0 must
// reproduce strict assignment order (every trained rollout carries the
// committed weights version or newer).
func TestFragmentStalenessBound(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			algF, agF := quickIMPALAFactories(t)
			s, err := core.NewSession(core.Config{
				NumExplorers: 4,
				RolloutLen:   40,
				MaxSteps:     3000,
				MaxDuration:  60 * time.Second,
				Topology:     core.Topology{Learners: 2, MaxStaleness: k},
			}, algF, agF, int64(20+k))
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			var observed atomic.Int64
			var mu sync.Mutex
			var violations []string
			learns, _ := s.Fragments()
			for i, l := range learns {
				i := i
				l.SetStalenessObserver(func(rolloutVer, dispatchVer int64) {
					observed.Add(1)
					if dispatchVer-rolloutVer > int64(k) {
						mu.Lock()
						if len(violations) < 8 {
							violations = append(violations, fmt.Sprintf(
								"replica %d: rollout version %d is %d behind committed %d (bound %d)",
								i, rolloutVer, dispatchVer-rolloutVer, dispatchVer, k))
						}
						mu.Unlock()
					}
				})
			}
			s.Start()
			s.Wait()
			rep := s.Stop()
			if err := s.Err(); err != nil {
				t.Fatalf("session error: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(violations) > 0 {
				t.Fatalf("staleness bound violated:\n%v", violations)
			}
			if observed.Load() == 0 {
				t.Fatal("no rollouts observed")
			}
			if rep.Fragments.MaxStaleness != k {
				t.Fatalf("report MaxStaleness = %d, want %d", rep.Fragments.MaxStaleness, k)
			}
		})
	}
}

// TestFragmentStrictOrderOnPolicy: under strict assignment order (K=0)
// explorers route by version — every rollout of one weights version reaches
// the same replica — so an on-policy algorithm that trains on one batch per
// explorer at the current policy (PPO) still assembles its complete
// synchronous set under replication. Per-rollout round-robin would split the
// set and livelock PPO: no replica could ever collect all four explorers'
// batches before the version moved (regression caught live; this pins it).
func TestFragmentStrictOrderOnPolicy(t *testing.T) {
	algF, agF := quickPPOFactories(t, 4)
	s, err := core.NewSession(core.Config{
		NumExplorers: 4,
		RolloutLen:   40,
		MaxSteps:     1600,
		MaxDuration:  60 * time.Second,
		Topology:     core.Topology{Learners: 2, MaxStaleness: 0},
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
	if rep.TrainIters == 0 {
		t.Fatal("PPO never trained under strict assignment order with 2 replicas")
	}
	if rep.StepsConsumed < 1600 {
		t.Fatalf("steps consumed = %d, want >= 1600", rep.StepsConsumed)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("%d object(s) leaked", leaked)
	}
}

// fragTopologyCase is one CI matrix entry of the fragment-topology job.
type fragTopologyCase struct {
	name      string
	machines  int
	grid      bool // real-TCP fabric.Grid instead of netsim
	explorers int
	maxSteps  int64
	topo      core.Topology
	// Failover legs: failover arms LearnerFailover with restarts as the
	// respawn budget and heartbeat as the liveness cadence; killAfter > 0
	// makes learn replica 0's first incarnation error after that many trains.
	failover  bool
	restarts  int
	heartbeat time.Duration
	killAfter int
	// Machine-failover legs (§5j): machineFailover arms Config.MachineFailover
	// with leaseEvery as the renewal period; killMachine > 0 arms a seeded
	// whole-machine kill (faultinject.NewMachineKill → Grid.Kill) after
	// killAfterWrites frame writes across the deployment. A machine kill
	// makes mid-run drops unavoidable (in-flight traffic toward the dead
	// machine, swap windows during re-placement), so these legs skip the
	// strict pre-Stop drop taxonomy and assert survival, takeover counts,
	// and leak-freedom instead.
	machineFailover bool
	leaseEvery      time.Duration
	killMachine     int
	killAfterWrites int
	// Explorer-restart legs: explorerRestarts is MaxExplorerRestarts, and
	// crashAfter > 0 makes explorer crashExplorer's first incarnation error
	// after that many rollouts; the run must then report exactly one
	// explorer restart.
	explorerRestarts int
	crashExplorer    int32
	crashAfter       int
	// check runs extra per-leg assertions on the fragment report.
	check func(t *testing.T, fr *core.FragmentReport)
}

var fragTopologyCases = []fragTopologyCase{
	{name: "fused-1m", machines: 1, explorers: 2, maxSteps: 1500, topo: core.Topology{}},
	{name: "impala-2l", machines: 1, explorers: 4, maxSteps: 3000, topo: core.ReplicatedTopology(2)},
	{name: "grid-4m", machines: 4, grid: true, explorers: 4, maxSteps: 2000, topo: core.Topology{
		Learners:         2,
		BroadcastMachine: 3,
		LearnMachines:    []int{1, 2},
		MaxStaleness:     core.StalenessUnbounded,
	}},
	// Degraded-mode leg: one replica dies with a zero respawn budget, the
	// run must finish N-1 — still with zero privileged drops and a drained
	// store. The generous heartbeat keeps loaded CI workers from tripping
	// the deadline on scheduling noise (the kill is detected via the error
	// channel, not the heartbeat plane).
	{name: "degraded-2l-kill1", machines: 1, explorers: 4, maxSteps: 3000,
		topo: core.ReplicatedTopology(2), failover: true, restarts: 0,
		heartbeat: 500 * time.Millisecond, killAfter: 3,
		check: func(t *testing.T, fr *core.FragmentReport) {
			if fr.Quarantines < 1 {
				t.Errorf("Quarantines = %d, want >= 1 (a replica was killed)", fr.Quarantines)
			}
			if fr.Respawns != 0 {
				t.Errorf("Respawns = %d, want 0 (the budget is zero)", fr.Respawns)
			}
			if fr.Degraded != 1 {
				t.Errorf("Degraded = %d, want 1", fr.Degraded)
			}
		}},
	// Whole-machine kill legs (§5j): a 4-machine TCP grid hosting a
	// 2-learner IMPALA loses one entire non-coordinator machine mid-run to
	// a seeded write-count trigger. The run must still reach the step
	// target with exactly one membership verdict and exactly one takeover
	// per fragment the dead machine hosted, so the target keeps the run
	// going well past the verdict (4 leases of 10 ms) and the moves: at
	// ≈ 250 k steps/s, 80 000 steps last ≈ 300 ms.
	// machine-kill-4m kills machine 1, where only explorer-1 runs;
	// machine-kill-learn-4m kills a learn-hosting machine (learn replica 0
	// + explorer-2).
	{name: "machine-kill-4m", machines: 4, grid: true, explorers: 4, maxSteps: 80000,
		topo: core.Topology{
			Learners:         2,
			BroadcastMachine: 3,
			LearnMachines:    []int{2, 3},
			MaxStaleness:     core.StalenessUnbounded,
		},
		machineFailover: true, leaseEvery: 10 * time.Millisecond,
		restarts: 3, heartbeat: 500 * time.Millisecond,
		killMachine: 1, killAfterWrites: 80,
		check: func(t *testing.T, fr *core.FragmentReport) {
			if fr.LeaseRenewals == 0 {
				t.Errorf("LeaseRenewals = 0, want > 0")
			}
			checkMachineKill(t, fr, core.ExplorerName(1))
		}},
	// machine-kill-caster-4m kills the broadcaster-hosting machine of the
	// grid-4m placement (broadcaster + explorer-3): the standby broadcaster
	// takes over with the replicas' pushes in flight to the dead one, which
	// only the replicas' push retry repairs.
	{name: "machine-kill-caster-4m", machines: 4, grid: true, explorers: 4, maxSteps: 80000,
		topo: core.Topology{
			Learners:         2,
			BroadcastMachine: 3,
			LearnMachines:    []int{1, 2},
			MaxStaleness:     core.StalenessUnbounded,
		},
		machineFailover: true, leaseEvery: 10 * time.Millisecond,
		restarts: 3, heartbeat: 500 * time.Millisecond,
		killMachine: 3, killAfterWrites: 80,
		check: func(t *testing.T, fr *core.FragmentReport) {
			checkMachineKill(t, fr, core.BroadcastName, core.ExplorerName(3))
		}},
	{name: "machine-kill-learn-4m", machines: 4, grid: true, explorers: 4, maxSteps: 80000,
		topo: core.Topology{
			Learners:         2,
			BroadcastMachine: 3,
			LearnMachines:    []int{2, 3},
			MaxStaleness:     core.StalenessUnbounded,
		},
		machineFailover: true, leaseEvery: 10 * time.Millisecond,
		restarts: 3, heartbeat: 500 * time.Millisecond,
		killMachine: 2, killAfterWrites: 80,
		check: func(t *testing.T, fr *core.FragmentReport) {
			if fr.Respawns < 1 {
				t.Errorf("Respawns = %d, want >= 1 (learn replica re-placed)", fr.Respawns)
			}
			checkMachineKill(t, fr, core.LearnName(0), core.ExplorerName(2))
		}},
	// machine-kill-restart-4m arms explorer restarts beside machine
	// failover: machine-kill-4m's kill, plus explorer-2 on a surviving
	// machine crashing once. The crash is restarted in place and spends
	// budget; the dead machine's explorer moves and spends none, so each
	// dead fragment still has exactly one takeover. The restart waits out
	// the membership plane's verdict window first (2 × 4 leases of 10 ms).
	{name: "machine-kill-restart-4m", machines: 4, grid: true, explorers: 4, maxSteps: 80000,
		topo: core.Topology{
			Learners:         2,
			BroadcastMachine: 3,
			LearnMachines:    []int{2, 3},
			MaxStaleness:     core.StalenessUnbounded,
		},
		machineFailover: true, leaseEvery: 10 * time.Millisecond,
		restarts: 3, heartbeat: 500 * time.Millisecond,
		killMachine: 1, killAfterWrites: 80,
		explorerRestarts: 2, crashExplorer: 2, crashAfter: 5,
		check: func(t *testing.T, fr *core.FragmentReport) {
			checkMachineKill(t, fr, core.ExplorerName(1))
		}},
}

// checkMachineKill fails unless the run saw exactly one membership verdict
// and exactly one takeover of each fragment the dead machine hosted, and of
// nothing else.
func checkMachineKill(t *testing.T, fr *core.FragmentReport, hosted ...string) {
	t.Helper()
	if fr.MachineVerdicts != 1 {
		t.Errorf("MachineVerdicts = %d, want 1", fr.MachineVerdicts)
	}
	for _, name := range hosted {
		if got := fr.TakeoverByFragment[name]; got != 1 {
			t.Errorf("TakeoverByFragment[%s] = %d, want 1 (full map: %v)",
				name, got, fr.TakeoverByFragment)
		}
	}
	if len(fr.TakeoverByFragment) != len(hosted) {
		t.Errorf("unexpected extra takeovers: %v", fr.TakeoverByFragment)
	}
}

// killerAlgorithm wraps a real algorithm and errors out of TryTrain after a
// fixed number of successful trains — the crash vector of the failover legs.
// It forwards weight restoration so the wrapped replica keeps resyncing from
// aggregate echoes until the kill.
type killerAlgorithm struct {
	inner  core.Algorithm
	after  int
	trains int
}

var errReplicaKilled = errors.New("injected replica kill")

func (k *killerAlgorithm) Name() string                     { return k.inner.Name() }
func (k *killerAlgorithm) PrepareData(b *rollout.Batch)     { k.inner.PrepareData(b) }
func (k *killerAlgorithm) Weights() *message.WeightsPayload { return k.inner.Weights() }

func (k *killerAlgorithm) RestoreWeights(version int64, data []float32) error {
	return k.inner.RestoreWeights(version, data)
}

func (k *killerAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	res, ok, err := k.inner.TryTrain()
	if err == nil && ok {
		k.trains++
		if k.trains > k.after {
			return core.TrainResult{}, false, errReplicaKilled
		}
	}
	return res, ok, err
}

// crashingAgent wraps a real agent and errors out of Rollout after a fixed
// number of rollouts — the crash vector of the explorer-restart legs.
type crashingAgent struct {
	core.Agent
	after    int
	rollouts int
}

var errExplorerKilled = errors.New("injected explorer crash")

func (c *crashingAgent) Rollout(n int) (*rollout.Batch, error) {
	if c.rollouts++; c.rollouts > c.after {
		return nil, errExplorerKilled
	}
	return c.Agent.Rollout(n)
}

// fragTopologyReport is the JSON artifact one matrix run writes.
type fragTopologyReport struct {
	Topology        string               `json:"topology"`
	Machines        int                  `json:"machines"`
	Grid            bool                 `json:"grid"`
	StepsConsumed   int64                `json:"steps_consumed"`
	TrainIters      int64                `json:"train_iters"`
	Throughput      float64              `json:"throughput_steps_per_s"`
	DurationMS      int64                `json:"duration_ms"`
	PrivilegedDrops int64                `json:"privileged_drops"`
	Leaked          int64                `json:"leaked"`
	Fragments       *core.FragmentReport `json:"fragments,omitempty"`
}

// TestFragmentTopologyCI is the fragment-topology matrix driver the CI
// `fragments` job runs: XT_FRAG_TOPOLOGY selects the case (all run without
// it), each asserting a clean store drain and zero privileged drops, and
// XT_FRAG_REPORT names the per-topology JSON report artifact.
func TestFragmentTopologyCI(t *testing.T) {
	want := os.Getenv("XT_FRAG_TOPOLOGY")
	ran := false
	for _, tc := range fragTopologyCases {
		if want != "" && tc.name != want {
			continue
		}
		ran = true
		t.Run(tc.name, func(t *testing.T) {
			runFragTopologyCase(t, tc)
		})
	}
	if !ran {
		t.Fatalf("unknown XT_FRAG_TOPOLOGY %q", want)
	}
}

// TestMachineKillMoveSpendsNoBudget: a learn replica moved off a dead
// machine spends no restart budget, so machine-kill-learn-4m survives with a
// zero respawn budget: the replica is re-placed, not degraded. The
// heartbeat-first leg gives the replica a heartbeat deadline (4 beats of
// 50 ms) shorter than the membership deadline (4 leases of 100 ms), so the
// broadcaster condemns the replica before the machine verdict lands; the
// supervisor must still judge the loss a move. Its step target is raised so
// the run outlives the slower verdict.
func TestMachineKillMoveSpendsNoBudget(t *testing.T) {
	for _, tc := range fragTopologyCases {
		if tc.name != "machine-kill-learn-4m" {
			continue
		}
		tc.restarts = 0
		check := tc.check
		tc.check = func(t *testing.T, fr *core.FragmentReport) {
			check(t, fr)
			if fr.Degraded != 0 {
				t.Errorf("Degraded = %d, want 0 (a move spends no budget)", fr.Degraded)
			}
		}
		t.Run("verdict-first", func(t *testing.T) { runFragTopologyCase(t, tc) })
		tc.heartbeat, tc.leaseEvery = 50*time.Millisecond, 100*time.Millisecond
		tc.maxSteps *= 3
		t.Run("heartbeat-first", func(t *testing.T) { runFragTopologyCase(t, tc) })
		return
	}
	t.Fatal("fragTopologyCases has no machine-kill-learn-4m leg")
}

func runFragTopologyCase(t *testing.T, tc fragTopologyCase) {
	algF, agF := quickIMPALAFactories(t)
	if tc.killAfter > 0 {
		// The first factory call is learn replica 0's first incarnation; it
		// gets the kill wrapper, everything later runs clean.
		base := algF
		var calls atomic.Int32
		algF = func(seed int64) (core.Algorithm, error) {
			alg, err := base(seed)
			if err != nil {
				return nil, err
			}
			if calls.Add(1) == 1 {
				return &killerAlgorithm{inner: alg, after: tc.killAfter}, nil
			}
			return alg, nil
		}
	}
	if tc.crashAfter > 0 {
		// The crashing explorer's first incarnation gets the crash wrapper;
		// its restarts and every other explorer run clean.
		base := agF
		var crashed atomic.Bool
		agF = func(id int32, seed int64) (core.Agent, error) {
			agent, err := base(id, seed)
			if err == nil && id == tc.crashExplorer && crashed.CompareAndSwap(false, true) {
				return &crashingAgent{Agent: agent, after: tc.crashAfter}, nil
			}
			return agent, err
		}
	}
	cfg := core.Config{
		NumExplorers:        tc.explorers,
		RolloutLen:          40,
		MaxSteps:            tc.maxSteps,
		MaxDuration:         90 * time.Second,
		Machines:            tc.machines,
		Topology:            tc.topo,
		LearnerFailover:     tc.failover,
		MaxLearnerRestarts:  tc.restarts,
		HeartbeatEvery:      tc.heartbeat,
		RestartBackoff:      2 * time.Millisecond,
		MachineFailover:     tc.machineFailover,
		LeaseEvery:          tc.leaseEvery,
		MaxExplorerRestarts: tc.explorerRestarts,
	}
	if tc.grid {
		opts := fabric.GridOptions{}
		var inj *faultinject.Injector
		if tc.killMachine > 0 {
			inj = faultinject.New(faultinject.Config{Seed: 7})
			opts.ConnWrapperFor = inj.WrapConnFor
		}
		g, err := fabric.NewGrid(tc.machines, opts)
		if err != nil {
			t.Fatalf("NewGrid: %v", err)
		}
		if tc.killMachine > 0 {
			kill := inj.NewMachineKill(tc.killAfterWrites, func() { g.Kill(tc.killMachine) })
			defer func() {
				if !kill.Fired() {
					t.Errorf("machine kill never fired (run finished under %d writes?)", tc.killAfterWrites)
				}
			}()
		}
		cfg.Transport = g
	} else if tc.machines > 1 {
		cfg.Net = netsim.Config{Bandwidth: 1 << 30, TimeScale: 1}
	}
	s, err := core.NewSession(cfg, algF, agF, 33)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()

	// Drop taxonomy before Stop: anything but backpressure shedding on a
	// healthy run is a routing or refcount bug, and a privileged message
	// (weights/control) must never have been dropped at all. A whole-machine
	// kill makes other drop classes unavoidable (traffic in flight toward
	// the dead machine, unknown-destination windows while fragments swap
	// homes), so kill legs skip this and lean on the survival, takeover,
	// and leak assertions below.
	var privileged int64
	if tc.killMachine == 0 {
		live := s.ChannelHealth()
		for _, bm := range live.Brokers {
			d := bm.Drops
			if other := d.Total() - d.ShedOldest - d.StoreBudget; other != 0 {
				t.Errorf("machine %d dropped %d messages outside backpressure shedding: %+v",
					bm.MachineID, other, d)
				privileged += other
			}
		}
	}

	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < tc.maxSteps {
		t.Fatalf("StepsConsumed = %d, want >= %d", rep.StepsConsumed, tc.maxSteps)
	}
	leaked := rep.Channel.TotalLeaked()
	if leaked != 0 {
		t.Fatalf("store not drained: TotalLeaked = %d\n%s", leaked, rep.Channel.String())
	}
	for _, bm := range rep.Channel.Brokers {
		if bm.ReleaseErrors != 0 {
			t.Fatalf("machine %d ReleaseErrors = %d, want 0", bm.MachineID, bm.ReleaseErrors)
		}
	}
	if tc.crashAfter > 0 && rep.ExplorerRestarts != 1 {
		t.Errorf("ExplorerRestarts = %d, want 1 (one crash; a move spends no budget)", rep.ExplorerRestarts)
	}
	if tc.check != nil {
		tc.check(t, rep.Fragments)
	}

	if path := os.Getenv("XT_FRAG_REPORT"); path != "" {
		out := fragTopologyReport{
			Topology:        tc.name,
			Machines:        tc.machines,
			Grid:            tc.grid,
			StepsConsumed:   rep.StepsConsumed,
			TrainIters:      rep.TrainIters,
			Throughput:      rep.Throughput,
			DurationMS:      rep.Duration.Milliseconds(),
			PrivilegedDrops: privileged,
			Leaked:          leaked,
			Fragments:       rep.Fragments,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write report: %v", err)
		}
	}
}

// TestFragmentCheckpointResume: a fragmented run saves per-fragment state
// (committed aggregate plus each replica's last push), and a resumed
// session continues from the saved committed version instead of restarting
// the version sequence.
func TestFragmentCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.ckpt")
	algF, agF := quickIMPALAFactories(t)
	cfg := core.Config{
		NumExplorers:    2,
		RolloutLen:      40,
		MaxSteps:        2000,
		MaxDuration:     60 * time.Second,
		Topology:        core.ReplicatedTopology(2),
		CheckpointPath:  path,
		CheckpointEvery: 2,
	}
	rep, err := core.Run(cfg, algF, agF, 14)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	states, err := checkpoint.LoadLatestFragments(path)
	if err != nil {
		t.Fatalf("LoadLatestFragments: %v", err)
	}
	byName := map[string]checkpoint.State{}
	for _, fs := range states {
		byName[fs.Name] = fs.State
	}
	saved, ok := byName[core.BroadcastName]
	if !ok {
		t.Fatalf("checkpoint set %v missing the broadcast fragment", states)
	}
	if saved.Version <= 0 || len(saved.Weights) == 0 {
		t.Fatalf("broadcast state = v%d with %d weights", saved.Version, len(saved.Weights))
	}
	if _, ok := byName[core.LearnName(0)]; !ok {
		t.Fatalf("checkpoint set %v missing learn-0", states)
	}
	_ = rep

	cfg.Resume = true
	s, err := core.NewSession(cfg, algF, agF, 15)
	if err != nil {
		t.Fatalf("resumed NewSession: %v", err)
	}
	_, caster := s.Fragments()
	if got := caster.Version(); got != saved.Version {
		t.Fatalf("resumed committed version = %d, want %d", got, saved.Version)
	}
	s.Start()
	s.Wait()
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("resumed session error: %v", err)
	}
}

// TestStopDuringRestartBackoffReturnsPromptly: Session.Stop issued while a
// supervisor sleeps out a restart backoff must interrupt the sleep instead
// of waiting the timer out.
func TestStopDuringRestartBackoffReturnsPromptly(t *testing.T) {
	algF := func(seed int64) (core.Algorithm, error) { return &countingAlgorithm{}, nil }
	agF := func(id int32, seed int64) (core.Agent, error) {
		return &faultyAgent{failAfter: 1}, nil
	}
	backoff := 30 * time.Second
	s, err := core.NewSession(core.Config{
		NumExplorers:        1,
		RolloutLen:          10,
		MaxSteps:            1 << 40,
		MaxDuration:         5 * time.Minute,
		MaxExplorerRestarts: 10,
		RestartBackoff:      backoff,
	}, algF, agF, 13)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()

	// Wait until supervision has observed the failure (LastRestartError is
	// recorded after teardown, right before the backoff sleep starts).
	waitUntil(t, 10*time.Second, "supervision to observe the explorer failure", func() bool {
		return s.ChannelHealth().Supervision.LastRestartError != ""
	})

	stopStart := time.Now()
	rep := s.Stop()
	if elapsed := time.Since(stopStart); elapsed > 5*time.Second {
		t.Fatalf("Stop took %v with a %v restart backoff pending — the backoff sleep must be interrupted",
			elapsed, backoff)
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d", leaked)
	}
}
