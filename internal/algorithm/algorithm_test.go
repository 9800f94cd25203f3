package algorithm

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"testing"

	"xingtian/internal/env"
	"xingtian/internal/rollout"
)

func cartpoleSpec(t testing.TB) (ModelSpec, env.Env) {
	t.Helper()
	e := env.NewCartPole(1)
	spec := SpecFor(e)
	spec.Hidden = []int{32, 32}
	return spec, e
}

func TestSpecFor(t *testing.T) {
	spec, e := cartpoleSpec(t)
	if spec.FeatureDim != 4 || spec.NumActions != 2 {
		t.Fatalf("SpecFor = %+v", spec)
	}
	feats := spec.Featurize(env.Obs{Vec: []float32{1, 2, 3, 4}})
	if len(feats) != e.FeatureDim() {
		t.Fatalf("Featurize len = %d", len(feats))
	}
}

func TestActorCriticWeightsRoundTrip(t *testing.T) {
	spec, _ := cartpoleSpec(t)
	p1 := NewPPO(spec, DefaultPPOConfig(1), 1)
	p2 := NewPPO(spec, DefaultPPOConfig(1), 2)
	w := p1.Weights()
	if err := setActorCriticWeights(p2.policy, p2.value, w.Data); err != nil {
		t.Fatalf("setActorCriticWeights: %v", err)
	}
	w2 := actorCriticWeights(p2.policy, p2.value)
	for i := range w.Data {
		if w.Data[i] != w2[i] {
			t.Fatal("actor-critic weights round trip mismatch")
		}
	}
	if err := setActorCriticWeights(p2.policy, p2.value, w.Data[:10]); err == nil {
		t.Fatal("short weights did not error")
	}
}

func TestDQNNotReadyBeforeTrainStart(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cfg := DefaultDQNConfig()
	cfg.TrainStart = 100
	d := NewDQN(spec, cfg, 1)
	agent := NewDQNAgent(spec, NewEnvRunner(e, spec), 2)
	b, err := agent.Rollout(50)
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	d.PrepareData(b)
	if _, ok, _ := d.TryTrain(); ok {
		t.Fatal("DQN trained with only 50 of 100 required steps")
	}
	if d.ReplayLen() != 50 {
		t.Fatalf("ReplayLen = %d, want 50", d.ReplayLen())
	}
}

func TestDQNTrainEveryGating(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cfg := DefaultDQNConfig()
	cfg.TrainStart = 32
	cfg.TrainEvery = 4
	cfg.BatchSize = 8
	d := NewDQN(spec, cfg, 1)
	agent := NewDQNAgent(spec, NewEnvRunner(e, spec), 2)
	b, err := agent.Rollout(40)
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	d.PrepareData(b)
	// 40 inserts => 10 sessions available at 4 inserts/session.
	sessions := 0
	for {
		res, ok, err := d.TryTrain()
		if err != nil {
			t.Fatalf("TryTrain: %v", err)
		}
		if !ok {
			break
		}
		if res.StepsConsumed != 8 {
			t.Fatalf("StepsConsumed = %d, want batch size 8", res.StepsConsumed)
		}
		sessions++
	}
	if sessions != 10 {
		t.Fatalf("sessions = %d, want 10", sessions)
	}
}

func TestDQNBroadcastCadence(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cfg := DefaultDQNConfig()
	cfg.TrainStart = 16
	cfg.TrainEvery = 1
	cfg.BatchSize = 4
	cfg.BroadcastEvery = 3
	d := NewDQN(spec, cfg, 1)
	agent := NewDQNAgent(spec, NewEnvRunner(e, spec), 2)
	b, _ := agent.Rollout(30)
	d.PrepareData(b)
	broadcasts := 0
	for i := 0; i < 9; i++ {
		res, ok, err := d.TryTrain()
		if err != nil || !ok {
			t.Fatalf("TryTrain %d: ok=%v err=%v", i, ok, err)
		}
		if res.Broadcast {
			broadcasts++
			if res.Targets != nil {
				t.Fatal("DQN broadcast must target all explorers (nil)")
			}
		}
	}
	if broadcasts != 3 {
		t.Fatalf("broadcasts = %d in 9 sessions with cadence 3, want 3", broadcasts)
	}
}

func TestDQNAgentWeightsSync(t *testing.T) {
	spec, e := cartpoleSpec(t)
	d := NewDQN(spec, DefaultDQNConfig(), 1)
	agent := NewDQNAgent(spec, NewEnvRunner(e, spec), 2)
	w := d.Weights()
	if err := agent.SetWeights(w); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if agent.WeightsVersion() != w.Version {
		t.Fatalf("WeightsVersion = %d", agent.WeightsVersion())
	}
	aw := agent.net.FlatWeights()
	for i := range aw {
		if aw[i] != w.Data[i] {
			t.Fatal("agent weights differ from learner weights after sync")
		}
	}
}

func TestPPOWaitsForAllExplorers(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cfg := DefaultPPOConfig(3)
	p := NewPPO(spec, cfg, 1)
	agent := NewPPOAgent(spec, NewEnvRunner(e, spec), 2)

	for i := int32(0); i < 2; i++ {
		b, err := agent.Rollout(20)
		if err != nil {
			t.Fatalf("Rollout: %v", err)
		}
		b.ExplorerID = i
		p.PrepareData(b)
		if _, ok, _ := p.TryTrain(); ok {
			t.Fatalf("PPO trained with %d of 3 explorers", i+1)
		}
	}
	b, _ := agent.Rollout(20)
	b.ExplorerID = 2
	p.PrepareData(b)
	res, ok, err := p.TryTrain()
	if err != nil {
		t.Fatalf("TryTrain: %v", err)
	}
	if !ok {
		t.Fatal("PPO did not train with all 3 explorers present")
	}
	if res.StepsConsumed != 60 {
		t.Fatalf("StepsConsumed = %d, want 60", res.StepsConsumed)
	}
	if !res.Broadcast || res.Targets != nil {
		t.Fatal("PPO must broadcast to all explorers after each iteration")
	}
}

func TestPPORejectsStaleRollouts(t *testing.T) {
	spec, e := cartpoleSpec(t)
	p := NewPPO(spec, DefaultPPOConfig(1), 1)
	agent := NewPPOAgent(spec, NewEnvRunner(e, spec), 2)
	b, _ := agent.Rollout(10)
	b.ExplorerID = 0
	b.WeightsVersion = 99 // not the learner's current version
	p.PrepareData(b)
	if _, ok, _ := p.TryTrain(); ok {
		t.Fatal("PPO trained on stale-version rollouts")
	}
}

func TestIMPALATrainsPerBatchAndTargetsProducer(t *testing.T) {
	spec, e := cartpoleSpec(t)
	im := NewIMPALA(spec, DefaultIMPALAConfig(), 1)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	b, err := agent.Rollout(25)
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	b.ExplorerID = 7
	im.PrepareData(b)
	res, ok, err := im.TryTrain()
	if err != nil {
		t.Fatalf("TryTrain: %v", err)
	}
	if !ok {
		t.Fatal("IMPALA did not train with a queued batch")
	}
	if res.StepsConsumed != 25 {
		t.Fatalf("StepsConsumed = %d, want 25", res.StepsConsumed)
	}
	if len(res.Targets) != 1 || res.Targets[0] != 7 {
		t.Fatalf("Targets = %v, want [7] (exactly the producer)", res.Targets)
	}
	if _, ok, _ := im.TryTrain(); ok {
		t.Fatal("IMPALA trained with an empty queue")
	}
}

func TestIMPALAQueueBound(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cfg := DefaultIMPALAConfig()
	cfg.MaxQueue = 3
	im := NewIMPALA(spec, cfg, 1)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	for i := 0; i < 6; i++ {
		b, _ := agent.Rollout(5)
		b.ExplorerID = int32(i)
		im.PrepareData(b)
	}
	if im.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", im.Dropped())
	}
	// The survivors are the newest three.
	res, ok, _ := im.TryTrain()
	if !ok || res.Targets[0] != 3 {
		t.Fatalf("first surviving batch from explorer %v, want 3", res.Targets)
	}
}

func TestIMPALARecordsBehaviorLogits(t *testing.T) {
	spec, e := cartpoleSpec(t)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	b, err := agent.Rollout(5)
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	for i, s := range b.Steps {
		if len(s.Logits) != spec.NumActions {
			t.Fatalf("step %d: %d behavior logits, want %d", i, len(s.Logits), spec.NumActions)
		}
	}
}

func TestBehaviorLogProb(t *testing.T) {
	logits := []float32{1, 2, 3}
	lp := behaviorLogProb(logits, 2)
	// softmax(1,2,3)[2] ≈ 0.6652
	want := float32(math.Log(0.66524096))
	if diff := lp - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("behaviorLogProb = %v, want %v", lp, want)
	}
	if behaviorLogProb(nil, 0) != 0 {
		t.Fatal("empty logits should yield 0")
	}
	if behaviorLogProb(logits, 5) != 0 {
		t.Fatal("out-of-range action should yield 0")
	}
}

func TestNormalize(t *testing.T) {
	xs := []float32{1, 2, 3, 4, 5}
	normalize(xs)
	var mean, variance float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= 5
	for _, x := range xs {
		variance += (float64(x) - mean) * (float64(x) - mean)
	}
	if math.Abs(mean) > 1e-5 {
		t.Fatalf("normalized mean = %v", mean)
	}
	if std := math.Sqrt(variance / 5); math.Abs(std-1) > 1e-3 {
		t.Fatalf("normalized std = %v", std)
	}
	one := []float32{7}
	normalize(one)
	if one[0] != 7 {
		t.Fatal("single-element normalize should be a no-op")
	}
}

// learnLoop trains a (learner, agent) pair in process. It returns the mean
// episode return at the first quarter of training and the best mean return
// observed in the second half (RL training curves oscillate; "did it ever
// play well after training" is the robust success criterion).
func learnLoop(t *testing.T, prep func(*rollout.Batch), try func() bool, sync func(), agent interface {
	Rollout(int) (*rollout.Batch, error)
	EpisodeStats() (int64, float64)
}, fragments, fragLen int) (early, best float64) {
	t.Helper()
	for i := 0; i < fragments; i++ {
		b, err := agent.Rollout(fragLen)
		if err != nil {
			t.Fatalf("Rollout %d: %v", i, err)
		}
		b.ExplorerID = 0
		prep(b)
		for try() {
		}
		sync()
		if i == fragments/4 {
			_, early = agent.EpisodeStats()
		}
		if i >= fragments/2 {
			if _, m := agent.EpisodeStats(); m > best {
				best = m
			}
		}
	}
	return early, best
}

func TestDQNLearnsCartPole(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	spec, e := cartpoleSpec(t)
	cfg := DefaultDQNConfig()
	cfg.TrainStart = 500
	cfg.TrainEvery = 2
	cfg.BatchSize = 32
	cfg.TargetSyncEvery = 200
	cfg.LR = 3e-4
	cfg.BroadcastEvery = 5
	d := NewDQN(spec, cfg, 3)
	agent := NewDQNAgent(spec, NewEnvRunner(e, spec), 4)
	agent.epsilonDecay = 0.9995

	early, late := learnLoop(t,
		d.PrepareData,
		func() bool {
			_, ok, err := d.TryTrain()
			if err != nil {
				t.Fatal(err)
			}
			return ok
		},
		func() { _ = agent.SetWeights(d.Weights()) },
		agent, 250, 100)
	if late < early+20 || late < 60 {
		t.Fatalf("DQN did not learn CartPole: early %.1f -> best %.1f", early, late)
	}
}

func TestPPOLearnsCartPole(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	spec, e := cartpoleSpec(t)
	cfg := DefaultPPOConfig(1)
	cfg.LR = 1e-3
	p := NewPPO(spec, cfg, 5)
	agent := NewPPOAgent(spec, NewEnvRunner(e, spec), 6)
	if err := agent.SetWeights(p.Weights()); err != nil {
		t.Fatal(err)
	}

	early, late := learnLoop(t,
		p.PrepareData,
		func() bool {
			_, ok, err := p.TryTrain()
			if err != nil {
				t.Fatal(err)
			}
			return ok
		},
		func() { _ = agent.SetWeights(p.Weights()) },
		agent, 80, 256)
	if late < early+20 || late < 80 {
		t.Fatalf("PPO did not learn CartPole: early %.1f -> late %.1f", early, late)
	}
}

func TestIMPALALearnsCartPole(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	spec, e := cartpoleSpec(t)
	cfg := DefaultIMPALAConfig()
	cfg.LR = 5e-4
	im := NewIMPALA(spec, cfg, 7)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 8)
	if err := agent.SetWeights(im.Weights()); err != nil {
		t.Fatal(err)
	}

	early, late := learnLoop(t,
		im.PrepareData,
		func() bool {
			_, ok, err := im.TryTrain()
			if err != nil {
				t.Fatal(err)
			}
			return ok
		},
		func() { _ = agent.SetWeights(im.Weights()) },
		agent, 150, 200)
	if late < early+20 || late < 80 {
		t.Fatalf("IMPALA did not learn CartPole: early %.1f -> late %.1f", early, late)
	}
}

// trainedIMPALAWeightsCRC is the CRC32C of the weights
// TestIMPALATrainedWeightsPinned trains, captured before the tensor
// package's matmul loops moved onto the vector axpy kernel. The kernel is
// bit-identical to those loops, so the pin must not move with it.
const trainedIMPALAWeightsCRC = 0x6e679d23

// TestIMPALATrainedWeightsPinned makes "learning is unchanged" a test: a
// fixed-seed IMPALA learner and explorer alternate rollouts and updates, and
// the learner's final weights must hash to the pinned CRC bit for bit. The
// hidden widths 45 and 23 run every tail of the 16- and 4-wide kernel body.
// The pin holds on amd64 only: other architectures fuse multiply-adds, so
// their weights differ in the last bits.
func TestIMPALATrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("weights pinned on amd64; " + runtime.GOARCH + " fuses multiply-adds")
	}
	e := env.NewCartPole(3)
	spec := SpecFor(e)
	spec.Hidden = []int{45, 23}
	im := NewIMPALA(spec, DefaultIMPALAConfig(), 11)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 12)
	for round := 0; round < 4; round++ {
		if err := agent.SetWeights(im.Weights()); err != nil {
			t.Fatalf("SetWeights: %v", err)
		}
		b, err := agent.Rollout(48)
		if err != nil {
			t.Fatalf("Rollout: %v", err)
		}
		for i := 0; i < 5; i++ {
			im.PrepareData(b)
			if _, ok, err := im.TryTrain(); !ok || err != nil {
				t.Fatalf("round %d TryTrain %d: ok=%v err=%v", round, i, ok, err)
			}
		}
	}
	w := im.Weights().Data
	buf := make([]byte, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if got := crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)); got != trainedIMPALAWeightsCRC {
		t.Fatalf("trained weights CRC32C = %#08x, want %#08x: learning changed", got, trainedIMPALAWeightsCRC)
	}
}

// impalaBenchRestart is how many trains BenchmarkIMPALATrain's learner
// runs before it is rebuilt, untimed. A learner kept training on its one
// batch drifts: about 6 000 trains in, its dead units' RMSProp states have
// decayed below the normal range (BenchmarkIMPALATrainAged), so without
// the rebuild ns/op would depend on b.N.
const impalaBenchRestart = 1000

// impalaBenchBatch returns the default 64-64 CartPole spec and the fixed
// 40-step batch the IMPALA benchmarks train on.
func impalaBenchBatch(b *testing.B) (ModelSpec, *rollout.Batch) {
	e := env.NewCartPole(1)
	spec := SpecFor(e)
	agent := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	if err := agent.SetWeights(NewIMPALA(spec, DefaultIMPALAConfig(), 1).Weights()); err != nil {
		b.Fatal(err)
	}
	batch, err := agent.Rollout(40)
	if err != nil {
		b.Fatal(err)
	}
	return spec, batch
}

// trainOnBatch queues batch and runs one TryTrain on it.
func trainOnBatch(b *testing.B, im *IMPALA, batch *rollout.Batch) {
	im.PrepareData(batch)
	if _, ok, err := im.TryTrain(); !ok || err != nil {
		b.Fatalf("TryTrain: ok=%v err=%v", ok, err)
	}
}

// BenchmarkIMPALATrain times one TryTrain on a fixed 40-step CartPole batch
// with the default 64-64 networks (the train-impala-grid learner's step)
// and reports its allocations. The learner starts fresh, and is rebuilt
// (and warmed by one untimed train) every impalaBenchRestart trains.
func BenchmarkIMPALATrain(b *testing.B) {
	spec, batch := impalaBenchBatch(b)
	var im *IMPALA
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%impalaBenchRestart == 0 {
			b.StopTimer()
			im = NewIMPALA(spec, DefaultIMPALAConfig(), 1)
			trainOnBatch(b, im, batch)
			b.StartTimer()
		}
		trainOnBatch(b, im, batch)
	}
}

// impalaAgedTrains is how long BenchmarkIMPALATrainAged's learner trains on
// its batch before it is timed. By then about 4 000 of its 9 155 RMSProp
// states are below 2⁻¹²⁵ with a zero gradient, and further training on the
// batch keeps them there.
const impalaAgedTrains = 8000

// agedIMPALA is BenchmarkIMPALATrainAged's learner, aged once per process.
var agedIMPALA struct {
	once  sync.Once
	im    *IMPALA
	batch *rollout.Batch
}

// BenchmarkIMPALATrainAged is BenchmarkIMPALATrain on a learner that has
// already trained impalaAgedTrains times on the batch: the regime a
// train-impala-grid learner is in for most of a run, where a float multiply
// on a subnormal RMSProp state used to take a microcode assist per dead
// parameter on every step.
func BenchmarkIMPALATrainAged(b *testing.B) {
	agedIMPALA.once.Do(func() {
		spec, batch := impalaBenchBatch(b)
		agedIMPALA.im, agedIMPALA.batch = NewIMPALA(spec, DefaultIMPALAConfig(), 1), batch
		for range impalaAgedTrains {
			trainOnBatch(b, agedIMPALA.im, batch)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainOnBatch(b, agedIMPALA.im, agedIMPALA.batch)
	}
}
