package core_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/fabric"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// preparedCounter counts the rollouts its algorithm is handed.
type preparedCounter struct {
	core.Algorithm
	n *atomic.Int64
}

func (p preparedCounter) PrepareData(b *rollout.Batch) {
	p.n.Add(1)
	p.Algorithm.PrepareData(b)
}

// grid4m is fragTopologyCases' grid-4m leg: two IMPALA learn replicas on
// machines 1 and 2, the broadcaster on 3, four explorers one per machine,
// over a real TCP grid.
type grid4m struct {
	grid     *fabric.Grid
	session  *core.Session
	prepared atomic.Int64
}

func newGrid4m(t *testing.T, algF core.AlgorithmFactory, agF core.AgentFactory, maxSteps int64, seed int64, tune func(*core.Config)) *grid4m {
	t.Helper()
	var leg *fragTopologyCase
	for i := range fragTopologyCases {
		if fragTopologyCases[i].name == "grid-4m" {
			leg = &fragTopologyCases[i]
		}
	}
	if leg == nil {
		t.Fatal("fragTopologyCases has no grid-4m leg")
	}
	g, err := fabric.NewGrid(leg.machines, fabric.GridOptions{})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	r := &grid4m{grid: g}
	counted := func(seed int64) (core.Algorithm, error) {
		alg, err := algF(seed)
		return preparedCounter{alg, &r.prepared}, err
	}
	cfg := core.Config{
		NumExplorers: leg.explorers,
		RolloutLen:   40,
		MaxSteps:     maxSteps,
		MaxDuration:  90 * time.Second,
		Machines:     leg.machines,
		Topology:     leg.topo,
		Transport:    g,
	}
	if tune != nil {
		tune(&cfg)
	}
	if r.session, err = core.NewSession(cfg, counted, agF, seed); err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return r
}

// framesSent sums the data frames every machine of the grid has written.
func (r *grid4m) framesSent() int64 {
	var n int64
	for m := 0; m < r.grid.Machines(); m++ {
		n += r.grid.Node(m).Metrics().FramesSent
	}
	return n
}

// TestFragmentFramesPerTrainedRollout: on the grid-4m placement a rollout
// travels explorer → learn replica in at most one frame, and the weight
// traffic each commit costs (pushes, echoes, broadcasts) is shared by the
// rollouts trained between commits, so the whole run writes at most two
// fabric frames per trained rollout. A stage between explorers and
// replicas that re-sends every rollout costs well over three.
func TestFragmentFramesPerTrainedRollout(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	r := newGrid4m(t, algF, agF, 60000, 41, nil)
	r.session.Start()
	r.session.Wait()
	frames, trained := r.framesSent(), r.prepared.Load()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 60000 || trained == 0 {
		t.Fatalf("StepsConsumed = %d, %d rollouts trained", rep.StepsConsumed, trained)
	}
	perRollout := float64(frames) / float64(trained)
	t.Logf("%d frames for %d trained rollouts: %.2f per rollout", frames, trained, perRollout)
	if perRollout > 2.0 {
		t.Fatalf("%.2f fabric frames per trained rollout (%d frames, %d rollouts), want <= 2.0",
			perRollout, frames, trained)
	}
}

// TestFragmentWeightDeltaAcks: with the default weight plane on the grid-4m
// placement, every explorer's ack reaches the broadcaster's planner, and in
// steady state the planner is never forced to a dense resync: the only
// dense snapshots seed each destination once — the four explorers at
// Start, the two replicas at the first commit.
func TestFragmentWeightDeltaAcks(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	r := newGrid4m(t, algF, agF, 100_000, 42, nil)
	_, caster := r.session.Fragments()
	r.session.Start()
	r.session.Wait()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	acked := caster.AckedWeights()
	for i := 0; i < 4; i++ {
		name := core.ExplorerName(int32(i))
		if v, ok := acked[name]; !ok || v <= 0 {
			t.Errorf("the broadcaster's ack ledger holds %s at %d (present %v), want a version > 0", name, v, ok)
		}
	}
	ps := rep.Fragments.Plane
	if ps.Resyncs != 0 || ps.Dense != 6 || ps.Delta == 0 {
		t.Fatalf("plane %+v, want no resyncs, 6 dense (4 explorers, 2 replicas) and deltas", ps)
	}
}

// echoLog records, per learn replica, the kinds of weights body it received
// in order: 'D' dense, 'd' delta; the filter keeps every message unless drop
// says otherwise.
type echoLog struct {
	mu    sync.Mutex
	kinds [2][]byte
}

func (e *echoLog) filter(idx int, drop func(seen []byte) bool) func(*message.Message) bool {
	return func(m *message.Message) bool {
		kind := byte('d')
		switch m.Body.(type) {
		case *message.WeightsPayload:
			kind = 'D'
		case *message.WeightsDeltaPayload:
		default:
			return true
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if drop != nil && drop(e.kinds[idx]) {
			e.kinds[idx] = append(e.kinds[idx], 'x')
			return false
		}
		e.kinds[idx] = append(e.kinds[idx], kind)
		return true
	}
}

func (e *echoLog) String(idx int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return string(e.kinds[idx])
}

// TestFragmentReplicaMirrorInstallsDeltas: on the grid-4m placement a learn
// replica's first echo is dense and every later one is a delta its mirror
// applies — no NACK, so no resync.
func TestFragmentReplicaMirrorInstallsDeltas(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	r := newGrid4m(t, algF, agF, 60_000, 43, nil)
	var log echoLog
	for i := 0; i < 2; i++ {
		r.session.FilterLearnRecv(i, log.filter(i, nil))
	}
	r.session.Start()
	r.session.Wait()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	for i := 0; i < 2; i++ {
		got := log.String(i)
		if len(got) < 2 || got[0] != 'D' || strings.Count(got, "D") != 1 {
			t.Errorf("%s received %.80q, want one dense echo, then deltas only", core.LearnName(i), got)
		}
	}
	if ps := rep.Fragments.Plane; ps.Resyncs != 0 {
		t.Fatalf("plane %+v, want no resyncs", ps)
	}
}

// TestFragmentReplicaMirrorResyncsLostEcho: learn-1 loses its first delta
// echo. The next delta does not apply to its mirror, so it NACKs; the
// broadcaster's next plan sends learn-1 — and only learn-1 — one dense
// resync, after which its deltas apply again and the run reaches its step
// target.
func TestFragmentReplicaMirrorResyncsLostEcho(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	r := newGrid4m(t, algF, agF, 60_000, 44, nil)
	var log echoLog
	r.session.FilterLearnRecv(0, log.filter(0, nil))
	r.session.FilterLearnRecv(1, log.filter(1, func(seen []byte) bool { return string(seen) == "D" }))
	r.session.Start()
	r.session.Wait()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 60_000 {
		t.Fatalf("StepsConsumed = %d, want >= 60000", rep.StepsConsumed)
	}
	if got := log.String(0); strings.Count(got, "D") != 1 {
		t.Errorf("learn-0 received %.80q, want its one seed dense only", got)
	}
	// Seed dense, the lost delta, deltas that no longer apply (NACKed),
	// the one dense resync, then deltas that apply again.
	got := log.String(1)
	t.Logf("learn-1's first bodies: %.40s", got)
	resync := strings.LastIndexByte(got, 'D')
	if !strings.HasPrefix(got, "Dx") || strings.Count(got, "D") != 2 || !strings.Contains(got[resync:], "d") {
		t.Errorf("learn-1 received %.80q, want D x d… D d…: one dense resync, then deltas", got)
	}
	// The NACK is the only resync, and its dense goes to learn-1 alone: six
	// seeds (four explorers, two replicas) and one resync.
	if ps := rep.Fragments.Plane; ps.Resyncs != 1 || ps.Dense != 7 {
		t.Fatalf("plane %+v, want 1 resync and 7 dense", ps)
	}
}

// TestFragmentGridLearnsCartPole is a learning-quality guard on the
// replicated dataflow: the grid-4m deployment of the benchmark's IMPALA
// (64×64 actor-critic, unbounded staleness) on CartPole reaches a mean
// return over each explorer's last 20 episodes of at least 60 within 150 000
// trained steps. A random policy scores ≈ 22.
func TestFragmentGridLearnsCartPole(t *testing.T) {
	spec := algorithm.SpecFor(env.NewCartPole(0))
	algF := func(seed int64) (core.Algorithm, error) {
		return algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), seed), nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		return algorithm.NewIMPALAAgent(spec, algorithm.NewEnvRunner(env.NewCartPole(seed), spec), seed), nil
	}
	r := newGrid4m(t, algF, agF, 150_000, 7, nil)
	r.session.Start()
	r.session.Wait()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 150_000 {
		t.Fatalf("StepsConsumed = %d, want >= 150000", rep.StepsConsumed)
	}
	t.Logf("mean return %.1f over %d episodes", rep.MeanReturn, rep.Episodes)
	if rep.MeanReturn < 60 {
		t.Fatalf("mean return %.1f at 150 000 steps, want >= 60", rep.MeanReturn)
	}
}
