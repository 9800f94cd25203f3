package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"xingtian/internal/algorithm"
	"xingtian/internal/env"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// Every input a workload sends is generated here, from the seed alone, before
// any clock starts; the system under test receives only the generated values.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodySum identifies a message body by the length and CRC32C of its
// canonical encoding. Delivered bodies are re-marshalled and compared with
// the sum of the pool entry they were sent from. (CRC32C rather than FNV-1a:
// it is hardware-accelerated, so checking a 2.3 MB frame rollout costs the
// receiving goroutine ~0.2 ms instead of ~2.3 ms of the 2 cores under test.)
type bodySum struct {
	Len int
	CRC uint32
}

func sumOf(encoded []byte) bodySum {
	return bodySum{Len: len(encoded), CRC: crc32.Checksum(encoded, castagnoli)}
}

// rolloutKind selects the two rollout shapes the uplink workloads contrast.
type rolloutKind struct {
	envName string
	steps   int
	// settle is how many steps the environment is played before the first
	// rollout is cut. An arcade episode opens on an empty screen that fills
	// over some tens of steps; frames from the opening compress better and
	// pack faster than the rest, so pools cut there made cost depend on the
	// seed.
	settle int
}

var (
	// frameRollouts: 80 steps of 4×84×84 frame stacks, ~2.27 MB raw, far
	// above the 1 MB LZ4 threshold — the bytes-dominated shape.
	frameRollouts = rolloutKind{envName: "Breakout", steps: 80, settle: 400}
	// vectorRollouts: 40 CartPole steps, ~2 KB raw, below the threshold —
	// the per-message-dominated shape (and the train workload's own shape).
	vectorRollouts = rolloutKind{envName: "CartPole", steps: 40}
)

// rolloutPool is a fixed set of distinct rollouts a sender cycles through.
type rolloutPool struct {
	batches []*rollout.Batch
	sums    []bodySum
	// rawBytes is the mean encoded size of one rollout.
	rawBytes float64
}

// genRolloutPool plays the environment under a uniformly random policy and
// cuts the experience into n rollouts through the production EnvRunner, so
// each has the fields and sizes an IMPALA explorer ships (behaviour logits
// included). The policy is uniform rather than a seeded network because a
// random network's action bias is a per-seed constant: it decided how full
// the arcade screen stayed, and with it how well a seed's frames compressed.
func genRolloutPool(kind rolloutKind, seed int64, n int) (*rolloutPool, error) {
	e, err := env.Make(kind.envName, seed)
	if err != nil {
		return nil, fmt.Errorf("rollout pool: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	runner := algorithm.NewEnvRunner(e, algorithm.SpecFor(e))
	policy := func([]float32) (int, float32, float32, []float32) {
		logits := make([]float32, e.NumActions())
		for i := range logits {
			logits[i] = rng.Float32()
		}
		return rng.Intn(e.NumActions()), 0, rng.Float32(), logits
	}
	if kind.settle > 0 {
		if _, err := runner.Collect(kind.settle, 0, policy); err != nil {
			return nil, fmt.Errorf("rollout pool: %w", err)
		}
	}
	pool := &rolloutPool{}
	var total int
	for i := 0; i < n; i++ {
		b, err := runner.Collect(kind.steps, int64(i), policy)
		if err != nil {
			return nil, fmt.Errorf("rollout pool: %w", err)
		}
		encoded, err := serialize.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("rollout pool: %w", err)
		}
		pool.batches = append(pool.batches, b)
		pool.sums = append(pool.sums, sumOf(encoded))
		total += len(encoded)
	}
	pool.rawBytes = float64(total) / float64(n)
	return pool, nil
}

// weightSchedule is the downlink workload's input: a parameter vector and a
// cyclic list of sparse perturbations, one applied per broadcast version.
type weightSchedule struct {
	initial []float32
	steps   []perturbation
	// amplitude bounds every single perturbation; it fixes the int8
	// quantization step the correctness check tolerates.
	amplitude float32
}

type perturbation struct {
	indices []int32
	deltas  []float32
}

const (
	weightParams       = 300_000
	weightTouchedShare = 0.01
	weightAmplitude    = 0.01
	weightScheduleLen  = 64
)

func genWeightSchedule(seed int64) *weightSchedule {
	rng := rand.New(rand.NewSource(seed))
	ws := &weightSchedule{initial: make([]float32, weightParams), amplitude: weightAmplitude}
	for i := range ws.initial {
		ws.initial[i] = float32(rng.NormFloat64() * 0.1)
	}
	touched := int(weightParams * weightTouchedShare)
	for s := 0; s < weightScheduleLen; s++ {
		p := perturbation{indices: make([]int32, touched), deltas: make([]float32, touched)}
		for i := range p.indices {
			p.indices[i] = int32(rng.Intn(weightParams))
			p.deltas[i] = (rng.Float32()*2 - 1) * weightAmplitude
		}
		ws.steps = append(ws.steps, p)
	}
	return ws
}

// apply advances cur by the schedule's step for version v.
func (ws *weightSchedule) apply(cur []float32, v int64) perturbation {
	p := ws.steps[int(v)%len(ws.steps)]
	for i, idx := range p.indices {
		cur[idx] += p.deltas[i]
	}
	return p
}
