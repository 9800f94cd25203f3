package core_test

import (
	"testing"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
)

// deviceAlg wraps a zoo algorithm and charges a fixed emulated device time
// per training session. The paper trains on a V100 where one session costs
// ~32 ms of accelerator time; the Go networks are CPU toys, so without the
// emulated charge the learn fragment is never the bottleneck and replicating
// it measures nothing (see the expSpecLight rationale in
// internal/experiments). Sleeping the trainer goroutine yields the core, so
// two learn replicas genuinely overlap their device time even on a 1-core
// host — the speedup below is pipeline parallelism, not SMP luck.
type deviceAlg struct {
	core.Algorithm
	trainTime time.Duration
}

func (d *deviceAlg) TryTrain() (core.TrainResult, bool, error) {
	res, ok, err := d.Algorithm.TryTrain()
	if ok && err == nil {
		time.Sleep(d.trainTime)
	}
	return res, ok, err
}

// runFragmentsIMPALA runs one IMPALA deployment under the given topology
// and returns its wall duration.
func runFragmentsIMPALA(b *testing.B, topo core.Topology) time.Duration {
	spec := algorithm.SpecFor(env.NewCartPole(0))
	spec.Hidden = []int{16}
	const trainTime = 4 * time.Millisecond
	algF := func(seed int64) (core.Algorithm, error) {
		alg := algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), seed)
		return &deviceAlg{Algorithm: alg, trainTime: trainTime}, nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		runner := algorithm.NewEnvRunner(env.NewCartPole(seed), spec)
		return algorithm.NewIMPALAAgent(spec, runner, seed), nil
	}
	cfg := core.Config{
		NumExplorers: 8,
		RolloutLen:   48,
		MaxSteps:     4800,
		MaxDuration:  2 * time.Minute,
		Topology:     topo,
	}
	start := time.Now()
	if _, err := core.Run(cfg, algF, agF, 1); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkBroadcastAggregate times one push → aggregate → echo round trip
// through local ports: 2 learn replicas of the IMPALA CartPole 64×64
// actor-critic (9 155 parameters) that the train-impala-grid benchmark
// workload runs. Both replicas push before the timer starts, so every timed
// push takes the 2-replica mean.
func BenchmarkBroadcastAggregate(b *testing.B) {
	spec := algorithm.SpecFor(env.NewCartPole(0))
	w := algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), 1).Weights().Data
	rig := newAggRig(b, 2, w)
	rig.push(b, 0, w)
	rig.push(b, 1, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.push(b, i%2, w)
	}
}

// BenchmarkBroadcastFold times the fold of a push backlog on the same
// replicas and weights as BenchmarkBroadcastAggregate: 8 pushes, alternating
// between the 2 replicas, queued before the fragment's first receive and
// committed once (6 released unread, 2 opened, one mean, one broadcast, one
// echo). Each iteration starts a fresh fragment; queueing is untimed.
func BenchmarkBroadcastFold(b *testing.B) {
	spec := algorithm.SpecFor(env.NewCartPole(0))
	w := algorithm.NewIMPALA(spec, algorithm.DefaultIMPALAConfig(), 1).Weights().Data
	rig := newIdleAggRig(b, 2, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 {
			rig.rebuild(b)
		}
		for j := 0; j < 8; j++ {
			rig.send(b, j%2, w, 0)
		}
		rig.waitQueued(b, 8)
		b.StartTimer()
		rig.cast.Start()
		rig.echo(b)
	}
}

// BenchmarkFragmentsIMPALA2v1 measures the learn-fragment replication win:
// the same device-time-bound IMPALA deployment run fused (the seed's single
// learner) and as a 2-replica fragment topology, reporting the duration
// ratio as "speedup". With training the bottleneck, two learn fragments
// drain the rollout stream in roughly half the device time, so the ratio
// should stay above 1; a ratio near 1 means the fragment runtime lost its
// overlap (e.g. dispatch serialized behind a slow replica).
func BenchmarkFragmentsIMPALA2v1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fused := runFragmentsIMPALA(b, core.Topology{})
		frag := runFragmentsIMPALA(b, core.ReplicatedTopology(2))
		ratio = float64(fused) / float64(frag)
	}
	b.ReportMetric(ratio, "speedup")
}
