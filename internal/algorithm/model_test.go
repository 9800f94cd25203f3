package algorithm

import (
	"math"
	"reflect"
	"testing"

	"xingtian/internal/core"
	"xingtian/internal/message"
)

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestAgentSetWeightsCopies: every zoo agent copies the payload it is
// handed and never retains it — the explorer reuses one payload over its
// delta mirror — so writing the payload's Data after SetWeights leaves the
// agent's weights as installed.
func TestAgentSetWeightsCopies(t *testing.T) {
	spec, e := cartpoleSpec(t)
	cspec, ce := pendulumSpec()
	dqn := NewDQNAgent(spec, NewEnvRunner(e, spec), 2)
	ppo := NewPPOAgent(spec, NewEnvRunner(e, spec), 2)
	impala := NewIMPALAAgent(spec, NewEnvRunner(e, spec), 2)
	ddpg := NewDDPGAgent(cspec, NewContinuousEnvRunner(ce), 2)
	for _, tc := range []struct {
		name    string
		agent   core.Agent
		weights func() []float32
	}{
		{"dqn", dqn, dqn.net.FlatWeights},
		{"ppo", ppo, func() []float32 { return actorCriticWeights(ppo.policy, ppo.value) }},
		{"impala", impala, func() []float32 { return actorCriticWeights(impala.policy, impala.value) }},
		{"ddpg", ddpg, ddpg.actor.FlatWeights},
	} {
		w := tc.weights()
		for i := range w {
			w[i] += 0.5
		}
		want := bitsOf(w)
		if err := tc.agent.SetWeights(&message.WeightsPayload{Version: 7, Data: w}); err != nil {
			t.Fatalf("%s: SetWeights: %v", tc.name, err)
		}
		for i := range w {
			w[i] = 9
		}
		if !reflect.DeepEqual(bitsOf(tc.weights()), want) || tc.agent.WeightsVersion() != 7 {
			t.Fatalf("%s: writing the payload after SetWeights changed the agent (version %d)", tc.name, tc.agent.WeightsVersion())
		}
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
