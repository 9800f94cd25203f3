package faultinject_test

import (
	"sync"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/faultinject"
	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/rollout"
)

// slowLearner is a deliberately slow trainer: each session sleeps before
// consuming one batch and rebroadcasting, so explorers outrun it and the
// channel must absorb the difference — the overload scenario the bounded
// store and shed policy exist for.
type slowLearner struct {
	delay   time.Duration
	mu      sync.Mutex
	pending []*rollout.Batch
	version int64
}

var _ core.Algorithm = (*slowLearner)(nil)

func (l *slowLearner) Name() string                          { return "slow-learner" }
func (l *slowLearner) RestoreWeights(int64, []float32) error { return nil }

func (l *slowLearner) PrepareData(b *rollout.Batch) {
	l.mu.Lock()
	l.pending = append(l.pending, b)
	l.mu.Unlock()
}

func (l *slowLearner) TryTrain() (core.TrainResult, bool, error) {
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		return core.TrainResult{}, false, nil
	}
	b := l.pending[0]
	l.pending = l.pending[1:]
	l.version++
	l.mu.Unlock()
	time.Sleep(l.delay)
	return core.TrainResult{StepsConsumed: len(b.Steps), Broadcast: true}, true, nil
}

func (l *slowLearner) Weights() *message.WeightsPayload {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &message.WeightsPayload{Version: l.version, Data: []float32{float32(l.version)}}
}

// floodAgent produces bulky rollouts as fast as the scheduler allows and
// records every weights version it is handed, in arrival order.
type floodAgent struct {
	mu       sync.Mutex
	versions []int64
}

var _ core.Agent = (*floodAgent)(nil)

func (a *floodAgent) Rollout(n int) (*rollout.Batch, error) {
	steps := make([]rollout.Step, n)
	for i := range steps {
		steps[i].Obs = env.Obs{Frame: make([]byte, 128)}
	}
	return &rollout.Batch{Steps: steps}, nil
}

func (a *floodAgent) SetWeights(w *message.WeightsPayload) error {
	a.mu.Lock()
	a.versions = append(a.versions, w.Version)
	a.mu.Unlock()
	return nil
}

func (a *floodAgent) WeightsVersion() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.versions) == 0 {
		return 0
	}
	return a.versions[len(a.versions)-1]
}

func (a *floodAgent) OnPolicy() bool                 { return false }
func (a *floodAgent) EpisodeStats() (int64, float64) { return 0, 0 }

// orderedVersions asserts an agent's received weights versions never went
// backwards — in-order, loss-free model-update delivery.
func orderedVersions(t *testing.T, id int32, versions []int64) {
	t.Helper()
	for i := 1; i < len(versions); i++ {
		if versions[i] < versions[i-1] {
			t.Fatalf("explorer %d saw weights version %d after %d (out of order)",
				id, versions[i], versions[i-1])
		}
	}
}

// overloadCluster builds a two-machine netsim deployment with bounded
// stores, shed depth, and the injector's latency spikes on every cross-
// machine transfer.
func overloadCluster(t *testing.T, inj *faultinject.Injector, budget int64, shedDepth int) *broker.Cluster {
	t.Helper()
	net := netsim.New(netsim.Config{TimeScale: 100, Fault: inj})
	cluster := broker.NewCluster(net)
	for m := 0; m < 2; m++ {
		if _, err := cluster.AddBrokerCfg(m, broker.Config{
			StoreBudget:    budget,
			ShedQueueDepth: shedDepth,
		}); err != nil {
			t.Fatalf("AddBrokerCfg %d: %v", m, err)
		}
	}
	return cluster
}

// TestOverloadSlowLearnerBoundedStore pins a slow learner behind latency
// spikes while explorers with no window flood it, and proves the overload
// protections hold end to end: training still reaches its step target, the
// exact live-byte peak of every store stays within the budget, trajectory
// sheds are the ONLY drops (model updates all get through), and every shed
// released its reference.
func TestOverloadSlowLearnerBoundedStore(t *testing.T) {
	const (
		budget    = 128 * 1024
		shedDepth = 8
		maxSteps  = 3000
	)
	inj := faultinject.New(faultinject.Config{
		Seed:               7,
		LatencySpikeEveryN: 3,
		LatencySpike:       25 * time.Millisecond,
	})
	cluster := overloadCluster(t, inj, budget, shedDepth)

	agents := map[int32]*floodAgent{}
	var mu sync.Mutex
	agF := func(id int32, seed int64) (core.Agent, error) {
		mu.Lock()
		defer mu.Unlock()
		a := &floodAgent{}
		agents[id] = a
		return a, nil
	}
	algF := func(seed int64) (core.Algorithm, error) {
		return &slowLearner{delay: 500 * time.Microsecond}, nil
	}

	s, err := core.NewSession(core.Config{
		NumExplorers: 2, // explorer-0 shares the learner's machine, explorer-1 is remote
		Machines:     2,
		Transport:    cluster,
		RolloutLen:   50,
		MaxSteps:     maxSteps,
		MaxDuration:  30 * time.Second,
		MaxInflight:  -1, // no rollout window: nothing upstream slows the flood
	}, algF, agF, 1)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()

	// Snapshot the taxonomy before Stop: shutdown reclamation legitimately
	// drops in-flight messages later, but during overload itself every drop
	// must be a droppable-class shed.
	live := s.ChannelHealth()
	var sheds int64
	for _, bm := range live.Brokers {
		d := bm.Drops
		if other := d.Total() - d.ShedOldest - d.StoreBudget; other != 0 {
			t.Fatalf("machine %d dropped %d non-trajectory messages under overload: %+v",
				bm.MachineID, other, d)
		}
		sheds += d.ShedOldest + d.StoreBudget
	}
	if sheds == 0 {
		t.Fatal("overload run shed nothing: the flood never hit the protections")
	}

	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error after overload run: %v", err)
	}
	if rep.StepsConsumed < maxSteps {
		t.Fatalf("StepsConsumed = %d, want >= %d (training starved under overload)",
			rep.StepsConsumed, maxSteps)
	}
	for _, bm := range rep.Channel.Brokers {
		if bm.Store.PeakLiveBytes > budget {
			t.Fatalf("machine %d PeakLiveBytes = %d, exceeds budget %d",
				bm.MachineID, bm.Store.PeakLiveBytes, budget)
		}
		if bm.ReleaseErrors != 0 {
			t.Fatalf("machine %d ReleaseErrors = %d (a shed double-released)",
				bm.MachineID, bm.ReleaseErrors)
		}
	}
	if inj.Stats().LatencySpikes == 0 {
		t.Fatal("injector fired no latency spikes")
	}

	// Model updates arrived in order at every explorer.
	mu.Lock()
	defer mu.Unlock()
	for id, a := range agents {
		a.mu.Lock()
		versions := append([]int64(nil), a.versions...)
		a.mu.Unlock()
		if len(versions) == 0 {
			t.Fatalf("explorer %d received no weights at all", id)
		}
		orderedVersions(t, id, versions)
	}

	// Refcount hygiene survived the flood.
	for m := 0; m < 2; m++ {
		if err := cluster.Broker(m).VerifyDrained(); err != nil {
			t.Fatalf("machine %d store not drained after overload: %v", m, err)
		}
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d after overload run", leaked)
	}
	t.Logf("overload run: %d steps, %d sheds, %d spikes, peaks %d/%d of %d budget",
		rep.StepsConsumed, sheds, inj.Stats().LatencySpikes,
		rep.Channel.Brokers[0].Store.PeakLiveBytes,
		rep.Channel.Brokers[1].Store.PeakLiveBytes, budget)
}

// TestOverloadSoakCleanDrain is the longer soak: sustained flood against a
// slower learner and a tighter budget, stopped by wall clock rather than a
// step target, then proves the deployment drains clean — bounded peaks the
// whole way, in-order weights delivery, stores empty, and an idempotent
// Stop.
func TestOverloadSoakCleanDrain(t *testing.T) {
	const (
		budget    = 64 * 1024
		shedDepth = 4
	)
	inj := faultinject.New(faultinject.Config{
		Seed:               23,
		LatencySpikeEveryN: 2,
		LatencySpike:       50 * time.Millisecond,
	})
	cluster := overloadCluster(t, inj, budget, shedDepth)

	agents := map[int32]*floodAgent{}
	var mu sync.Mutex
	agF := func(id int32, seed int64) (core.Agent, error) {
		mu.Lock()
		defer mu.Unlock()
		a := &floodAgent{}
		agents[id] = a
		return a, nil
	}
	algF := func(seed int64) (core.Algorithm, error) {
		return &slowLearner{delay: 2 * time.Millisecond}, nil
	}

	s, err := core.NewSession(core.Config{
		NumExplorers: 3,
		Machines:     2,
		Transport:    cluster,
		RolloutLen:   50,
		MaxSteps:     1 << 40, // never reached: the soak runs on wall clock
		MaxDuration:  2 * time.Second,
		MaxInflight:  -1,
	}, algF, agF, 2)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.Start()
	s.Wait()
	rep := s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("session error after soak: %v", err)
	}

	if rep.StepsConsumed == 0 {
		t.Fatal("learner consumed nothing during the soak")
	}
	var sheds int64
	for _, bm := range rep.Channel.Brokers {
		if bm.Store.PeakLiveBytes > budget {
			t.Fatalf("machine %d PeakLiveBytes = %d, exceeds budget %d",
				bm.MachineID, bm.Store.PeakLiveBytes, budget)
		}
		sheds += bm.Drops.ShedOldest + bm.Drops.StoreBudget
	}
	if sheds == 0 {
		t.Fatal("soak shed nothing: the flood never pressured the channel")
	}

	mu.Lock()
	for id, a := range agents {
		a.mu.Lock()
		orderedVersions(t, id, a.versions)
		a.mu.Unlock()
	}
	mu.Unlock()

	// Clean drain on Stop: stores empty, nothing leaked, Stop idempotent.
	for m := 0; m < 2; m++ {
		if err := cluster.Broker(m).VerifyDrained(); err != nil {
			t.Fatalf("machine %d store not drained after soak: %v", m, err)
		}
	}
	if leaked := rep.Channel.TotalLeaked(); leaked != 0 {
		t.Fatalf("TotalLeaked = %d after soak", leaked)
	}
	if again := s.Stop(); again != rep {
		t.Fatal("second Stop returned a different report")
	}
	t.Logf("soak: %d steps consumed, %d sheds, %d spikes",
		rep.StepsConsumed, sheds, inj.Stats().LatencySpikes)
}
