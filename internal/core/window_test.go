package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// slowTrain sleeps after every training step of the algorithm it wraps and
// counts the rollouts handed to it.
type slowTrain struct {
	core.Algorithm
	delay    time.Duration
	prepared *atomic.Int64
}

func (a slowTrain) PrepareData(b *rollout.Batch) {
	a.Algorithm.PrepareData(b)
	a.prepared.Add(1)
}

func (a slowTrain) TryTrain() (core.TrainResult, bool, error) {
	res, ok, err := a.Algorithm.TryTrain()
	if ok {
		time.Sleep(a.delay)
	}
	return res, ok, err
}

// TestWindowBoundsSlowReplicaQueue: on the grid-4m placement learn-0 sleeps
// 20 ms after every training step, so its trainer takes rollouts off its
// receive buffer far slower than its share arrives. Only learn-0's own acks
// make room in the explorers' windows at it, so what waits for its trainer
// — its port queue plus the rollouts in its receive buffer — never exceeds
// the window times the four explorers, plus one drain; the run still
// reaches its step target.
func TestWindowBoundsSlowReplicaQueue(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	var built atomic.Int32
	var received, taken atomic.Int64
	slowFirst := func(seed int64) (core.Algorithm, error) {
		alg, err := algF(seed)
		if built.Add(1) == 1 { // learn-0: replicas are built in name order
			return slowTrain{alg, 20 * time.Millisecond, &taken}, err
		}
		return alg, err
	}
	r := newGrid4m(t, slowFirst, agF, 60_000, 45, nil)
	r.session.FilterLearnRecv(0, func(m *message.Message) bool {
		if m.Header.Type == message.TypeRollout {
			received.Add(1)
		}
		return true
	})
	bound := core.DefaultMaxInflight*4 + core.DrainCap
	var peak int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	r.session.Start()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			// Taken first: a rollout counted taken was counted received.
			out := taken.Load()
			peak = max(peak, int64(r.session.LearnPending(0))+received.Load()-out)
		}
	}()
	r.session.Wait()
	close(stop)
	<-sampled
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	t.Logf("learn-0's queue peaked at %d (bound %d); it took %d rollouts; steps trained per replica %v",
		peak, bound, taken.Load(), rep.Fragments.LearnSteps)
	if rep.StepsConsumed < 60_000 {
		t.Fatalf("StepsConsumed = %d, want >= 60000", rep.StepsConsumed)
	}
	if peak > int64(bound) {
		t.Fatalf("learn-0's queue reached %d, want <= %d", peak, bound)
	}
}

// TestWindowSurvivesDroppedRollouts: learn-0 loses explorer-0's first
// window of rollouts, so no ack from learn-0 will ever cover them. The
// explorer expires them after pushRetry and goes on sending to learn-0,
// and the run reaches its step target.
func TestWindowSurvivesDroppedRollouts(t *testing.T) {
	algF, agF := quickIMPALAFactories(t)
	r := newGrid4m(t, algF, agF, 150_000, 46, nil)
	var dropped, after int64 // touched only by learn-0's receiver thread
	r.session.FilterLearnRecv(0, func(m *message.Message) bool {
		if m.Header.Type != message.TypeRollout || m.Header.Src != core.ExplorerName(0) {
			return true
		}
		if dropped < core.DefaultMaxInflight {
			dropped++
			return false
		}
		after++
		return true
	})
	r.session.Start()
	r.session.Wait()
	rep := r.session.Stop()
	if err := r.session.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if rep.StepsConsumed < 150_000 {
		t.Fatalf("StepsConsumed = %d, want >= 150000", rep.StepsConsumed)
	}
	if dropped != core.DefaultMaxInflight || after == 0 {
		t.Fatalf("learn-0 dropped %d of explorer-0's rollouts and took %d after them, want %d and some",
			dropped, after, core.DefaultMaxInflight)
	}
}

// TestWindowFusedDQNWarmUp: a fused DQN learner below TrainStart trains
// nothing and broadcasts nothing, yet its acks alone keep a window of one
// rollout moving, so the explorers fill the replay buffer and training
// starts.
func TestWindowFusedDQNWarmUp(t *testing.T) {
	spec := algorithm.SpecFor(env.NewCartPole(0))
	spec.Hidden = []int{16}
	algF := func(seed int64) (core.Algorithm, error) {
		cfg := algorithm.DefaultDQNConfig()
		cfg.TrainStart = 2000
		cfg.BatchSize = 16
		return algorithm.NewDQN(spec, cfg, seed), nil
	}
	agF := func(id int32, seed int64) (core.Agent, error) {
		return algorithm.NewDQNAgent(spec, algorithm.NewEnvRunner(env.NewCartPole(seed), spec), seed), nil
	}
	rep, err := core.Run(core.Config{
		NumExplorers: 2,
		Machines:     2,
		RolloutLen:   10,
		MaxSteps:     1000,
		MaxDuration:  30 * time.Second,
		MaxInflight:  1,
	}, algF, agF, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.StepsConsumed < 1000 || rep.TrainIters == 0 {
		t.Fatalf("StepsConsumed = %d over %d trains in %v, want >= 1000: the warm-up wedged",
			rep.StepsConsumed, rep.TrainIters, rep.Duration)
	}
}
