package main

import (
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/fabric"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// train-impala-grid is the one workload where every layer runs together with
// real compute: the grid-4m CI topology — a 2-learner IMPALA on CartPole, 4
// explorers, sampler on machine 0, learn replicas on machines 1 and 2,
// broadcaster on machine 3, fabric.Grid underneath. The benchmark observes it
// through its own Agent and Algorithm wrappers and the session's public
// reports; the operation is one trained rollout step.

const (
	trainExplorers  = 4
	trainLearners   = 2
	trainMachines   = 4
	trainRolloutLen = 40
)

var trainIMPALAGrid = &workloadDef{
	name:    "train-impala-grid",
	why:     "2-learner IMPALA on the 4-machine grid: every layer at once with real compute; CPU saved in any comm layer becomes trained steps",
	op:      "rollout step trained",
	latency: "one completed train call → the next on the same learn replica (40 steps)",
	window:  1,
	generate: func(seed int64) (any, error) {
		pool, err := genRolloutPool(vectorRollouts, seed, 32)
		if err != nil {
			return nil, err
		}
		return &trainInputs{seed: seed, pool: pool}, nil
	},
	setup:  setupTrain,
	staged: stagedTrain,
	budget: trainBudget,
}

// trainInputs carries the seed the session derives its networks and
// environments from, plus a rollout pool of the workload's own message shape
// for the staged replay.
type trainInputs struct {
	seed int64
	pool *rolloutPool
}

// replicaRecorder is what one Algorithm wrapper observes. Its fields are
// written by the replica's trainer goroutine only and read after Stop.
type replicaRecorder struct {
	trainNS, prepareNS int64
	trains, prepares   int64
	lastDone           time.Time
	busySinceDone      time.Duration
	samples            sampleLog
	busy               []time.Duration // by sample index: compute inside that period
}

// timedAlgorithm wraps a learn replica's Algorithm: it times PrepareData and
// successful TryTrain calls, counts the steps they consumed, and records the
// period from one completed train to the next.
type timedAlgorithm struct {
	inner core.Algorithm
	rec   *replicaRecorder
	steps *atomic.Int64 // shared across replicas; read live by progress
	first *firstOp
	spans *spanBuf
	id    uint64
}

func (a *timedAlgorithm) Name() string                     { return a.inner.Name() }
func (a *timedAlgorithm) Weights() *message.WeightsPayload { return a.inner.Weights() }

func (a *timedAlgorithm) RestoreWeights(version int64, data []float32) error {
	if r, ok := a.inner.(core.WeightsRestorer); ok {
		return r.RestoreWeights(version, data)
	}
	return nil
}

func (a *timedAlgorithm) PrepareData(b *rollout.Batch) {
	start := time.Now()
	a.inner.PrepareData(b)
	end := time.Now()
	a.rec.prepareNS += end.Sub(start).Nanoseconds()
	a.rec.prepares++
	a.rec.busySinceDone += end.Sub(start)
	a.spans.add("algorithm.prepare", "", a.id, start, end)
}

func (a *timedAlgorithm) TryTrain() (core.TrainResult, bool, error) {
	start := time.Now()
	res, ok, err := a.inner.TryTrain()
	if !ok || err != nil {
		return res, ok, err
	}
	end := time.Now()
	a.rec.trainNS += end.Sub(start).Nanoseconds()
	a.rec.trains++
	a.rec.busySinceDone += end.Sub(start)
	a.steps.Add(int64(res.StepsConsumed))
	a.first.done()
	if !a.rec.lastDone.IsZero() {
		a.rec.samples.add(end, end.Sub(a.rec.lastDone).Seconds()*1e3)
		a.rec.busy = append(a.rec.busy, a.rec.busySinceDone)
	}
	a.rec.lastDone = end
	a.rec.busySinceDone = 0
	a.spans.add("algorithm.train", "", a.id, start, end)
	return res, ok, err
}

// explorerRecorder is what one Agent wrapper observes; written by the
// explorer's worker goroutine only and read after Stop.
type explorerRecorder struct {
	rolloutNS, setWeightsNS int64
	rollouts, setWeights    int64
	lastVersion             int64
	versionRegressions      int64
}

// timedAgent wraps an explorer's Agent: it times Rollout and SetWeights and
// checks that the weights versions it is handed never go backwards. It does
// not implement core.DeltaAgent: the CI topology broadcasts dense weights.
type timedAgent struct {
	inner core.Agent
	rec   *explorerRecorder
	spans *spanBuf
	id    uint64
}

func (a *timedAgent) WeightsVersion() int64          { return a.inner.WeightsVersion() }
func (a *timedAgent) OnPolicy() bool                 { return a.inner.OnPolicy() }
func (a *timedAgent) EpisodeStats() (int64, float64) { return a.inner.EpisodeStats() }

func (a *timedAgent) Rollout(n int) (*rollout.Batch, error) {
	start := time.Now()
	b, err := a.inner.Rollout(n)
	end := time.Now()
	a.rec.rolloutNS += end.Sub(start).Nanoseconds()
	a.rec.rollouts++
	a.spans.add("algorithm.rollout", "", a.id, start, end)
	return b, err
}

func (a *timedAgent) SetWeights(w *message.WeightsPayload) error {
	if w.Version < a.rec.lastVersion {
		a.rec.versionRegressions++
	}
	a.rec.lastVersion = w.Version
	start := time.Now()
	err := a.inner.SetWeights(w)
	end := time.Now()
	a.rec.setWeightsNS += end.Sub(start).Nanoseconds()
	a.rec.setWeights++
	a.spans.add("algorithm.set_weights", "", a.id, start, end)
	return err
}

type trainRun struct {
	grid    *fabric.Grid
	session *core.Session
	*firstOp
	steps   atomic.Int64
	started time.Time
	tr      *tracer

	// The factories run inside NewSession, before start knows the tracer; the
	// wrappers are kept so start can hand each its span buffer.
	mu     sync.Mutex
	algs   []*timedAlgorithm
	agents []*timedAgent
}

func setupTrain(inputs any, _ int) (instance, error) {
	in := inputs.(*trainInputs)
	g, err := newGrid(trainMachines, false)
	if err != nil {
		return nil, err
	}
	t := &trainRun{grid: g, firstOp: newFirstOp()}
	spec := algorithm.SpecFor(env.NewCartPole(0))
	algF := func(seed int64) (core.Algorithm, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		alg := &timedAlgorithm{
			inner: algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), seed),
			rec:   &replicaRecorder{}, steps: &t.steps, first: t.firstOp, id: uint64(len(t.algs)),
		}
		t.algs = append(t.algs, alg)
		return alg, nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		agent := &timedAgent{
			inner: algorithm.NewIMPALAAgent(spec, algorithm.NewEnvRunner(env.NewCartPole(seed), spec), seed),
			rec:   &explorerRecorder{}, id: uint64(id),
		}
		t.agents = append(t.agents, agent)
		return agent, nil
	}
	cfg := core.Config{
		NumExplorers: trainExplorers,
		RolloutLen:   trainRolloutLen,
		Machines:     trainMachines,
		Transport:    g,
		Topology: core.Topology{
			Learners:         trainLearners,
			SampleMachine:    0,
			BroadcastMachine: 3,
			LearnMachines:    []int{1, 2},
			MaxStaleness:     core.StalenessUnbounded,
		},
	}
	// NewSession owns the transport from here on and stops it on failure.
	if t.session, err = core.NewSession(cfg, algF, agF, in.seed); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *trainRun) start(tr *tracer) {
	t.tr = tr
	for _, a := range t.algs {
		a.spans = tr.buffer()
	}
	for _, a := range t.agents {
		a.spans = tr.buffer()
	}
	t.started = time.Now()
	t.session.Start()
}

func (t *trainRun) progress() (int64, int64) {
	return t.steps.Load(), wireBytesSent(t.grid)
}

func (t *trainRun) health() broker.ClusterHealth { return t.session.ChannelHealth() }

func (t *trainRun) stop(from, to time.Time) outcome {
	pre := t.session.ChannelHealth()
	rep := t.session.Stop()
	wall := time.Since(t.started)
	out := outcome{
		layers: channelLayers(pre, rep.Channel),
		extra:  make(map[string]float64),
		spans:  selfTimes(t.tr.all()),
	}
	var found violations
	violate := found.add
	if err := t.session.Err(); err != nil {
		violate("session error: %v", err)
	}
	if n, detail := dropsOutsideShedding(pre); n != 0 {
		violate("%d drop(s) outside backpressure shedding before stop:%s", n, detail)
	}
	for i, a := range t.agents {
		if n := a.rec.versionRegressions; n != 0 {
			violate("explorer %d was handed an older weights version %d time(s)", i, n)
		}
	}
	seen := t.steps.Load()
	if rep.StepsConsumed != seen {
		violate("report says %d steps consumed, the algorithm wrappers saw %d", rep.StepsConsumed, seen)
	}
	out.attempted = seen
	out.verified = seen
	out.violations = found.list

	// Learner side: period samples, busy share inside the measured interval,
	// mean call times over the whole run.
	var trainNS, prepareNS, trains, prepares int64
	var busyInside time.Duration
	var periods []float64
	for _, a := range t.algs {
		r := a.rec
		trainNS += r.trainNS
		prepareNS += r.prepareNS
		trains += r.trains
		prepares += r.prepares
		out.samples = append(out.samples, &r.samples)
		r.samples.each(from, to, func(s sample, i int) {
			busyInside += r.busy[i]
			periods = append(periods, s.ms)
		})
	}
	if span := to.Sub(from); span > 0 {
		idle := 1 - busyInside.Seconds()/(float64(len(t.algs))*span.Seconds())
		out.extra["learner_idle_frac"] = idle
		out.layers["core.learner_idle_frac"] = idle
	}
	out.unloadedMS = mean(periods)
	if trains > 0 {
		out.layers["algorithm.train_us"] = float64(trainNS) / float64(trains) / 1e3
		out.layers["algorithm.prepares_per_train"] = float64(prepares) / float64(trains)
	}
	if prepares > 0 {
		out.layers["algorithm.prepare_us"] = float64(prepareNS) / float64(prepares) / 1e3
	}

	// Explorer side.
	var rolloutNS, setNS, rollouts, sets int64
	for _, a := range t.agents {
		e := a.rec
		rolloutNS += e.rolloutNS
		setNS += e.setWeightsNS
		rollouts += e.rollouts
		sets += e.setWeights
	}
	if rollouts > 0 {
		out.layers["algorithm.rollout_us"] = float64(rolloutNS) / float64(rollouts) / 1e3
	}
	if sets > 0 {
		out.layers["algorithm.set_weights_us"] = float64(setNS) / float64(sets) / 1e3
	}
	out.layers["algorithm.mean_return"] = rep.MeanReturn
	out.layers["core.explorer_busy_frac"] = float64(rolloutNS) / (float64(len(t.agents)) * float64(wall.Nanoseconds()))

	// The session's own decomposition (the paper's Table 1 columns).
	out.layers["core.rollout_transmission_mean_ms"] = rep.MeanTransmission.Seconds() * 1e3
	out.layers["core.learner_wait_mean_ms"] = rep.MeanWait.Seconds() * 1e3
	if rep.StepsGenerated > 0 {
		out.layers["core.consumed_share"] = float64(rep.StepsConsumed) / float64(rep.StepsGenerated)
	}
	if fr := rep.Fragments; fr != nil {
		out.layers["core.stale_dropped"] = float64(fr.StaleDrops)
		out.layers["core.aggregations"] = float64(fr.Aggregations)
	}
	return out
}

// stagedTrain stages the channel layers on the workload's own traffic: its
// 40-step CartPole rollouts and the dense weights of its 64×64 actor-critic,
// one weights body per four rollouts, uncompressed as the CI topology runs.
func stagedTrain(inputs any, stageBudget time.Duration) (map[string]float64, error) {
	in := inputs.(*trainInputs)
	spec := algorithm.SpecFor(env.NewCartPole(0))
	weights := algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), in.seed).Weights()
	var bodies []any
	for i, b := range in.pool.batches {
		bodies = append(bodies, b)
		if i%4 == 3 {
			bodies = append(bodies, weights)
		}
	}
	return stagedChannel(bodies, serialize.Compressor{}, stageBudget)
}

// trainBudget splits a learn replica's mean period between completed trains
// into the compute the wrappers timed; the residual is what the replica spent
// waiting for the channel to hand it rollouts, pushing weights, and in the
// runtime's own loop.
func trainBudget(l map[string]float64) []budgetRow {
	return []budgetRow{
		{"algorithm", l["algorithm.train_us"] / 1e3, "TryTrain (V-trace update on one rollout)"},
		{"algorithm", l["algorithm.prepare_us"] * l["algorithm.prepares_per_train"] / 1e3, "PrepareData per rollout received"},
	}
}
