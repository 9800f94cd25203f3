package algorithm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestWeightMirrorInvalidatedByFailedInstall: the mirror advances in place
// before the install, so an install that fails leaves it ahead of the agent.
// It must then refuse every delta — on the old base and on the base it now
// holds — until a dense snapshot re-seeds it, after which chaining resumes.
func TestWeightMirrorInvalidatedByFailedInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := make([]float32, 500)
	for i := range w1 {
		w1[i] = float32(rng.NormFloat64())
	}
	w2, w3 := append([]float32(nil), w1...), make([]float32, len(w1))
	for i := 0; i < len(w2); i += 17 {
		w2[i] += 0.05
	}
	copy(w3, w2)
	for i := 3; i < len(w3); i += 13 {
		w3[i] -= 0.05
	}
	// The canonical chain: r2 = w1 + d12, r3 = r2 + d23.
	r2, r3 := make([]float32, len(w1)), make([]float32, len(w1))
	d12, err := serialize.EncodeDeltaInto(w1, w2, r2, 1, 2, serialize.QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	d23, err := serialize.EncodeDeltaInto(r2, w3, r3, 2, 3, serialize.QuantInt8)
	if err != nil {
		t.Fatal(err)
	}

	var m weightMirror
	m.setDense(&message.WeightsPayload{Version: 1, Data: w1})
	failed := errors.New("install failed")
	failOnce := true
	var installed []float32
	install := func(w []float32) error {
		if failOnce {
			failOnce = false
			return failed
		}
		installed = append(installed[:0], w...)
		return nil
	}
	if err := m.applyDelta(d12, install); !errors.Is(err, failed) {
		t.Fatalf("applyDelta with a failing install = %v, want the install error", err)
	}
	if m.version != mirrorInvalid {
		t.Fatalf("mirror at version %d after a failed install, want invalidated", m.version)
	}
	for _, d := range []*message.WeightsDeltaPayload{d12, d23} {
		if err := m.applyDelta(d, install); err == nil {
			t.Fatalf("invalidated mirror accepted a delta on base %d", d.BaseVersion)
		}
	}
	if installed != nil {
		t.Fatal("a refused delta reached the agent")
	}

	m.setDense(&message.WeightsPayload{Version: 2, Data: r2})
	if err := m.applyDelta(d23, install); err != nil {
		t.Fatalf("re-seeded mirror refused the next chain delta: %v", err)
	}
	if m.version != 3 || !reflect.DeepEqual(bitsOf(m.flat), bitsOf(r3)) || !reflect.DeepEqual(bitsOf(installed), bitsOf(r3)) {
		t.Fatalf("re-seeded mirror at version %d does not hold and install the canonical reconstruction", m.version)
	}
}

// TestWeightMirrorApplyDeltaAllocatesNothing: with no install, chaining a
// delta onto the mirror advances the mirror's own vector and allocates
// nothing.
func TestWeightMirrorApplyDeltaAllocatesNothing(t *testing.T) {
	base := make([]float32, 1000)
	cur := append([]float32(nil), base...)
	for i := 0; i < len(cur); i += 9 {
		cur[i] = 0.25
	}
	d, err := serialize.EncodeDelta(base, cur, 4, 5, serialize.QuantInt8)
	if err != nil || d.Entries() == 0 {
		t.Fatalf("EncodeDelta: %d entries, %v", d.Entries(), err)
	}
	var m weightMirror
	m.setDense(&message.WeightsPayload{Version: 4, Data: base})
	allocs := testing.AllocsPerRun(20, func() {
		m.version = d.BaseVersion
		if err := m.applyDelta(d, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("weightMirror.applyDelta allocates %.0f times, want 0", allocs)
	}
}

// TestActorCriticWeightsWrongLengthWritesNeither: a payload one parameter too
// long or too short is refused before either network is written, so an
// IMPALA or PPO agent keeps its weights and its version.
func TestActorCriticWeightsWrongLengthWritesNeither(t *testing.T) {
	spec, e := cartpoleSpec(t)
	donor := NewPPO(spec, DefaultPPOConfig(1), 1).Weights()
	impala := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	ppo := NewPPOAgent(spec, NewEnvRunner(e, spec), 2)
	for _, tc := range []struct {
		name    string
		agent   core.Agent
		weights func() []float32
	}{
		{"impala", impala, func() []float32 { return actorCriticWeights(impala.policy, impala.value) }},
		{"ppo", ppo, func() []float32 { return actorCriticWeights(ppo.policy, ppo.value) }},
	} {
		if err := tc.agent.SetWeights(&message.WeightsPayload{Version: 1, Data: donor.Data}); err != nil {
			t.Fatalf("%s: SetWeights: %v", tc.name, err)
		}
		want := bitsOf(tc.weights())
		for _, n := range []int{len(donor.Data) + 1, len(donor.Data) - 1} {
			bad := make([]float32, n)
			for i := range bad {
				bad[i] = 9
			}
			if err := tc.agent.SetWeights(&message.WeightsPayload{Version: 2, Data: bad}); err == nil {
				t.Fatalf("%s: %d-param payload for %d params accepted", tc.name, len(bad), len(donor.Data))
			}
			if !reflect.DeepEqual(bitsOf(tc.weights()), want) || tc.agent.WeightsVersion() != 1 {
				t.Fatalf("%s: a refused %d-param payload changed the agent (version %d)", tc.name, len(bad), tc.agent.WeightsVersion())
			}
		}
	}
}
