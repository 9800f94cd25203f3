// Package algorithm implements the learner-side DRL algorithms of the zoo —
// DQN (value-based, off-policy), PPO (actor-critic, on-policy), and IMPALA
// (actor-critic, off-policy with V-trace) — against the core.Algorithm
// interface, plus the shared network construction both learners and agents
// use.
package algorithm

import (
	"fmt"
	"math/rand"

	"xingtian/internal/env"
	"xingtian/internal/nn"
)

// ModelSpec describes the network family for one environment: input width
// (pooled features), action count, and hidden sizes. It is the Go analogue
// of the paper's Model class.
type ModelSpec struct {
	// FeatureDim is the model input width (env.FeatureDim()).
	FeatureDim int
	// NumActions is the discrete action count.
	NumActions int
	// Hidden lists hidden layer widths (default {64, 64}).
	Hidden []int
	// Pool is the frame pooling factor used to featurize observations.
	Pool int
}

// SpecFor derives a ModelSpec from an environment with default hidden
// layers.
func SpecFor(e env.Env) ModelSpec {
	return ModelSpec{
		FeatureDim: e.FeatureDim(),
		NumActions: e.NumActions(),
		Hidden:     []int{64, 64},
		Pool:       env.DefaultPool,
	}
}

// Featurize converts a raw observation into the model's input vector.
func (s ModelSpec) Featurize(o env.Obs) []float32 {
	return o.PooledFeatures(s.Pool)
}

// BuildNet constructs an MLP from FeatureDim through Hidden to outDim.
func (s ModelSpec) BuildNet(rng *rand.Rand, outDim int) *nn.Network {
	layers := make([]nn.Layer, 0, 2*len(s.Hidden)+1)
	in := s.FeatureDim
	hidden := s.Hidden
	if len(hidden) == 0 {
		hidden = []int{64, 64}
	}
	for _, h := range hidden {
		layers = append(layers, nn.NewDense(rng, in, h), nn.NewReLU())
		in = h
	}
	layers = append(layers, nn.NewDense(rng, in, outDim))
	return nn.NewNetwork(layers...)
}

// BuildPolicy returns a logits network over actions.
func (s ModelSpec) BuildPolicy(rng *rand.Rand) *nn.Network {
	return s.BuildNet(rng, s.NumActions)
}

// BuildValue returns a scalar state-value network.
func (s ModelSpec) BuildValue(rng *rand.Rand) *nn.Network {
	return s.BuildNet(rng, 1)
}

// BuildQ returns a Q-value network over actions.
func (s ModelSpec) BuildQ(rng *rand.Rand) *nn.Network {
	return s.BuildNet(rng, s.NumActions)
}

// actorCriticWeights flattens a policy and value network into one broadcast
// payload: [len(policy)] policy weights then value weights.
func actorCriticWeights(policy, value *nn.Network) []float32 {
	out := make([]float32, 0, policy.NumParams()+value.NumParams())
	return value.AppendFlatWeights(policy.AppendFlatWeights(out))
}

// setActorCriticWeights splits a combined payload back into the two nets. A
// payload of the wrong length writes neither, so an agent is never left on
// half-installed weights.
func setActorCriticWeights(policy, value *nn.Network, w []float32) error {
	np, nv := policy.NumParams(), value.NumParams()
	if len(w) != np+nv {
		return fmt.Errorf("%w: got %d, actor-critic has %d+%d params", nn.ErrWeightSize, len(w), np, nv)
	}
	if err := policy.SetFlatWeights(w[:np]); err != nil {
		return err
	}
	return value.SetFlatWeights(w[np:])
}
