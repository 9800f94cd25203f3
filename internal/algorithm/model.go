// Package algorithm implements the learner-side DRL algorithms of the zoo —
// DQN (value-based, off-policy), PPO (actor-critic, on-policy), and IMPALA
// (actor-critic, off-policy with V-trace) — against the core.Algorithm
// interface, plus the shared network construction both learners and agents
// use.
package algorithm

import (
	"fmt"
	"math"
	"math/rand"

	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/nn"
	"xingtian/internal/serialize"
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

// weightMirror is the explorer-side flat shadow of the last applied weight
// broadcast. Agents keep one so sparse deltas have a base vector to apply
// against; the mirror version gates deltas whose base the agent never saw
// (e.g. after a supervised restart rebuilt the agent from scratch).
//
// Agents are driven by a single worker thread, so the mirror needs no lock.
type weightMirror struct {
	version int64
	flat    []float32
}

// mirrorInvalid is the version of a mirror whose vector no longer matches
// the agent's weights: no delta's base, so every delta is refused (and
// NACKed) until a dense snapshot re-seeds it.
const mirrorInvalid = math.MinInt64

// setDense records a full snapshot as the new base.
func (m *weightMirror) setDense(w *message.WeightsPayload) {
	m.flat = append(m.flat[:0], w.Data...)
	m.version = w.Version
}

// applyDelta advances the mirror by one delta in place, then installs the
// advanced vector via install (empty version bumps skip the install). A
// delta that does not apply leaves the mirror unchanged; an install that
// fails leaves it ahead of the agent, so it is invalidated. Either way the
// caller can NACK and keep sampling on its current weights.
func (m *weightMirror) applyDelta(d *message.WeightsDeltaPayload, install func([]float32) error) error {
	if m.flat == nil {
		return fmt.Errorf("no weights applied yet, delta base %d unavailable", d.BaseVersion)
	}
	if m.version == mirrorInvalid {
		return fmt.Errorf("mirror invalidated by a failed install, delta base %d unavailable", d.BaseVersion)
	}
	if m.version != d.BaseVersion {
		return fmt.Errorf("mirror at version %d, delta expects base %d", m.version, d.BaseVersion)
	}
	if _, err := serialize.ApplyDelta(m.flat, d); err != nil {
		return err
	}
	if d.Entries() > 0 && install != nil {
		if err := install(m.flat); err != nil {
			m.version = mirrorInvalid
			return err
		}
	}
	m.version = d.Version
	return nil
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
