package algorithm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/nn"
	"xingtian/internal/rollout"
	"xingtian/internal/tensor"
)

// PPOConfig holds PPO hyperparameters (Schulman et al., 2017).
type PPOConfig struct {
	NumExplorers  int
	Gamma         float32
	Lambda        float32 // GAE
	ClipEps       float32
	Epochs        int
	MinibatchSize int
	LR            float32
	ValueCoef     float32
	EntropyCoef   float32
}

// DefaultPPOConfig returns standard PPO hyperparameters for n explorers.
func DefaultPPOConfig(n int) PPOConfig {
	return PPOConfig{
		NumExplorers:  n,
		Gamma:         0.99,
		Lambda:        0.95,
		ClipEps:       0.2,
		Epochs:        4,
		MinibatchSize: 64,
		LR:            3e-4,
		ValueCoef:     0.5,
		EntropyCoef:   0.01,
	}
}

// PPO is the learner side of Proximal Policy Optimization. It is on-policy:
// a training iteration starts only after a rollout from every explorer has
// arrived (the paper's Fig. 1(a) barrier) — but in XingTian the rollouts of
// fast explorers are already in the local receive buffer by then, because
// transmission overlapped the slow explorers' environment interaction.
type PPO struct {
	cfg    PPOConfig
	spec   ModelSpec
	rng    *rand.Rand
	policy *nn.Network
	value  *nn.Network
	pOpt   nn.Optimizer
	vOpt   nn.Optimizer

	mu      sync.Mutex
	pending map[int32][]*rollout.Batch
	version int64
}

var _ core.Algorithm = (*PPO)(nil)

// NewPPO builds a PPO learner.
func NewPPO(spec ModelSpec, cfg PPOConfig, seed int64) *PPO {
	if cfg.NumExplorers < 1 {
		cfg.NumExplorers = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &PPO{
		cfg:     cfg,
		spec:    spec,
		rng:     rng,
		policy:  spec.BuildPolicy(rng),
		value:   spec.BuildValue(rng),
		pOpt:    nn.NewAdam(cfg.LR),
		vOpt:    nn.NewAdam(cfg.LR),
		pending: make(map[int32][]*rollout.Batch),
	}
}

// Name implements core.Algorithm.
func (p *PPO) Name() string { return "PPO" }

// PrepareData queues a rollout; stale rollouts (older weights versions) are
// rejected because PPO may only train on data from the current policy.
func (p *PPO) PrepareData(b *rollout.Batch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.WeightsVersion != p.version {
		return // produced under an outdated policy; unusable on-policy data
	}
	p.pending[b.ExplorerID] = append(p.pending[b.ExplorerID], b)
}

// ready reports whether every explorer has contributed (caller holds mu).
func (p *PPO) ready() bool {
	if len(p.pending) < p.cfg.NumExplorers {
		return false
	}
	for _, q := range p.pending {
		if len(q) == 0 {
			return false
		}
	}
	return true
}

// TryTrain implements core.Algorithm: one synchronized iteration over one
// batch per explorer, then a weights broadcast to everyone.
func (p *PPO) TryTrain() (core.TrainResult, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ready() {
		return core.TrainResult{}, false, nil
	}
	// Gather in ascending explorer ID: the map's order is random, and the
	// batch order decides the training set's, so the same batches must
	// train the same weights.
	ids := make([]int32, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	batches := make([]*rollout.Batch, 0, len(ids))
	for _, id := range ids {
		q := p.pending[id]
		batches = append(batches, q[0])
		if len(q) == 1 {
			delete(p.pending, id)
		} else {
			p.pending[id] = q[1:]
		}
	}

	feats, actions, oldLP, adv, returns := p.assemble(batches)
	steps := len(actions)
	if steps == 0 {
		return core.TrainResult{}, false, fmt.Errorf("ppo: empty training set")
	}

	loss := p.optimize(feats, actions, oldLP, adv, returns)
	p.version++
	return core.TrainResult{
		StepsConsumed: steps,
		Broadcast:     true,
		Loss:          loss,
	}, true, nil
}

// assemble flattens batches into training arrays, computing GAE advantages
// and value targets per fragment.
func (p *PPO) assemble(batches []*rollout.Batch) (feats [][]float32, actions []int, oldLP, adv, returns []float32) {
	for _, b := range batches {
		n := len(b.Steps)
		if n == 0 {
			continue
		}
		// Bootstrap with the current value net unless the fragment ended a
		// episode.
		var bootstrap float32
		last := &b.Steps[n-1]
		if !last.Done {
			bv := p.value.Forward(tensor.FromSlice(1, p.spec.FeatureDim, p.spec.Featurize(b.BootstrapObs)))
			bootstrap = bv.Data[0]
		}
		a := make([]float32, n)
		var gae float32
		nextValue := bootstrap
		for t := n - 1; t >= 0; t-- {
			s := &b.Steps[t]
			mask := float32(1)
			if s.Done {
				mask = 0
			}
			delta := s.Reward + p.cfg.Gamma*nextValue*mask - s.Value
			gae = delta + p.cfg.Gamma*p.cfg.Lambda*mask*gae
			a[t] = gae
			nextValue = s.Value
		}
		for t := 0; t < n; t++ {
			s := &b.Steps[t]
			feats = append(feats, p.spec.Featurize(s.Obs))
			actions = append(actions, int(s.Action))
			oldLP = append(oldLP, s.LogProb)
			adv = append(adv, a[t])
			returns = append(returns, a[t]+s.Value)
		}
	}
	normalize(adv)
	return feats, actions, oldLP, adv, returns
}

// normalize standardizes xs to zero mean, unit variance in place.
func normalize(xs []float32) {
	if len(xs) < 2 {
		return
	}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		d := float64(x) - mean
		variance += d * d
	}
	std := math.Sqrt(variance/float64(len(xs))) + 1e-8
	for i := range xs {
		xs[i] = float32((float64(xs[i]) - mean) / std)
	}
}

// optimize runs the clipped-surrogate epochs and returns the last minibatch
// loss.
func (p *PPO) optimize(feats [][]float32, actions []int, oldLP, adv, returns []float32) float32 {
	n := len(actions)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var lastLoss float32
	mb := p.cfg.MinibatchSize
	if mb <= 0 || mb > n {
		mb = n
	}
	for epoch := 0; epoch < p.cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start+mb <= n; start += mb {
			idx := order[start : start+mb]
			lastLoss = p.step(idx, feats, actions, oldLP, adv, returns)
		}
	}
	return lastLoss
}

// step applies one minibatch update to both networks.
func (p *PPO) step(idx []int, feats [][]float32, actions []int, oldLP, adv, returns []float32) float32 {
	m := len(idx)
	x := tensor.New(m, p.spec.FeatureDim)
	for i, j := range idx {
		copy(x.Data[i*p.spec.FeatureDim:], feats[j])
	}

	// Policy update.
	p.policy.ZeroGrads()
	logits := p.policy.Forward(x)
	logp := logits.Clone()
	logp.LogSoftmaxRows()
	probs := logits.Clone()
	probs.SoftmaxRows()

	grad := tensor.New(m, p.spec.NumActions)
	var totalLoss float32
	for i, j := range idx {
		a := actions[j]
		newLP := logp.At(i, a)
		ratio := float32(math.Exp(float64(newLP - oldLP[j])))
		adv_ := adv[j]
		unclipped := ratio * adv_
		lo, hi := 1-p.cfg.ClipEps, 1+p.cfg.ClipEps
		clippedRatio := ratio
		if clippedRatio < lo {
			clippedRatio = lo
		} else if clippedRatio > hi {
			clippedRatio = hi
		}
		clipped := clippedRatio * adv_
		surr := unclipped
		useUnclipped := true
		if clipped < unclipped {
			surr = clipped
			useUnclipped = false
		}
		totalLoss -= surr

		// dLoss/dlogp(a): −ratio·adv when the unclipped branch is active
		// (or the clip is not binding), else 0.
		var dLdLP float32
		if useUnclipped || (ratio >= lo && ratio <= hi) {
			dLdLP = -ratio * adv_
		}

		// Entropy bonus: loss −= c_H · H.
		var entropy float32
		for c := 0; c < p.spec.NumActions; c++ {
			pc := probs.At(i, c)
			if pc > 1e-12 {
				entropy -= pc * float32(math.Log(float64(pc)))
			}
		}
		totalLoss -= p.cfg.EntropyCoef * entropy

		scale := 1 / float32(m)
		for c := 0; c < p.spec.NumActions; c++ {
			pc := probs.At(i, c)
			// Surrogate term through log-softmax.
			delta := float32(0)
			if c == a {
				delta = 1
			}
			g := dLdLP * (delta - pc)
			// Entropy term: d(−H)/dz_c = p_c (log p_c + H).
			logPC := float32(math.Log(float64(pc + 1e-12)))
			g += p.cfg.EntropyCoef * pc * (logPC + entropy)
			grad.Set(i, c, g*scale)
		}
	}
	p.policy.Backward(grad)
	p.policy.ClipGradNorm(0.5)
	p.pOpt.Step(p.policy)

	// Value update.
	p.value.ZeroGrads()
	v := p.value.Forward(x)
	target := tensor.New(m, 1)
	for i, j := range idx {
		target.Data[i] = returns[j]
	}
	vGrad := tensor.New(m, 1)
	vLoss := nn.MSELoss(v, target, vGrad)
	vGrad.ScaleInPlace(p.cfg.ValueCoef)
	p.value.Backward(vGrad)
	p.value.ClipGradNorm(0.5)
	p.vOpt.Step(p.value)

	return totalLoss/float32(m) + p.cfg.ValueCoef*vLoss
}

// Weights implements core.Algorithm: combined actor-critic payload.
func (p *PPO) Weights() *message.WeightsPayload {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &message.WeightsPayload{
		Version: p.version,
		Data:    actorCriticWeights(p.policy, p.value),
	}
}

// LoadWeights restores the actor-critic parameters from a combined payload
// (PBT weight inheritance).
func (p *PPO) LoadWeights(data []float32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := setActorCriticWeights(p.policy, p.value, data); err != nil {
		return fmt.Errorf("ppo load: %w", err)
	}
	return nil
}

// RestoreWeights reinstates a checkpointed snapshot (parameters plus the
// version counter, so broadcasts resume the pre-crash sequence).
func (p *PPO) RestoreWeights(version int64, data []float32) error {
	if err := p.LoadWeights(data); err != nil {
		return err
	}
	p.mu.Lock()
	p.version = version
	p.mu.Unlock()
	return nil
}

// PPOAgent is the explorer side: stochastic sampling from the softmax
// policy with value/log-prob annotations for GAE.
type PPOAgent struct {
	spec   ModelSpec
	policy *nn.Network
	value  *nn.Network
	rng    *rand.Rand

	version int64
	runner  *EnvRunner
}

var _ core.Agent = (*PPOAgent)(nil)

// NewPPOAgent builds an explorer agent for PPO.
func NewPPOAgent(spec ModelSpec, runner *EnvRunner, seed int64) *PPOAgent {
	rng := rand.New(rand.NewSource(seed))
	return &PPOAgent{
		spec:   spec,
		policy: spec.BuildPolicy(rng),
		value:  spec.BuildValue(rng),
		rng:    rng,
		runner: runner,
	}
}

// OnPolicy implements core.Agent: PPO waits for fresh weights per fragment.
func (a *PPOAgent) OnPolicy() bool { return true }

// SetWeights implements core.Agent.
func (a *PPOAgent) SetWeights(w *message.WeightsPayload) error {
	if err := setActorCriticWeights(a.policy, a.value, w.Data); err != nil {
		return fmt.Errorf("ppo agent: %w", err)
	}
	a.version = w.Version
	return nil
}

// WeightsVersion implements core.Agent.
func (a *PPOAgent) WeightsVersion() int64 { return a.version }

// EpisodeStats implements core.Agent.
func (a *PPOAgent) EpisodeStats() (int64, float64) { return a.runner.EpisodeStats() }

// Rollout implements core.Agent.
func (a *PPOAgent) Rollout(n int) (*rollout.Batch, error) {
	return a.runner.Collect(n, a.version, func(feats []float32) (int, float32, float32, []float32) {
		x := tensor.FromSlice(1, len(feats), feats)
		logits := a.policy.Forward(x)
		logp := logits.Clone()
		logp.LogSoftmaxRows()
		action := sampleLogits(a.rng, logp)
		v := a.value.Forward(x)
		return action, v.Data[0], logp.At(0, action), nil
	})
}

// sampleLogits draws an action from a 1×A log-probability row.
func sampleLogits(rng *rand.Rand, logp *tensor.Tensor) int {
	u := rng.Float64()
	var cum float64
	for c := 0; c < logp.Cols; c++ {
		cum += math.Exp(float64(logp.At(0, c)))
		if u <= cum {
			return c
		}
	}
	return logp.Cols - 1
}
