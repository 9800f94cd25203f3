package algorithm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/nn"
	"xingtian/internal/rollout"
	"xingtian/internal/tensor"
)

// IMPALAConfig holds IMPALA hyperparameters (Espeholt et al., 2018).
type IMPALAConfig struct {
	Gamma       float32
	RhoBar      float32 // V-trace ρ̄ truncation
	CBar        float32 // V-trace c̄ truncation
	LR          float32
	ValueCoef   float32
	EntropyCoef float32
	// MaxQueue bounds the pending-batch queue; older batches are dropped
	// first when exceeded (off-policy correction handles moderate lag, but
	// unbounded queues would hide learner saturation).
	MaxQueue int
}

// DefaultIMPALAConfig returns standard IMPALA hyperparameters.
func DefaultIMPALAConfig() IMPALAConfig {
	return IMPALAConfig{
		Gamma:       0.99,
		RhoBar:      1.0,
		CBar:        1.0,
		LR:          1e-3,
		ValueCoef:   0.5,
		EntropyCoef: 0.01,
		MaxQueue:    64,
	}
}

// IMPALA is the learner side of the Importance Weighted Actor-Learner
// Architecture: it trains on whichever explorer's rollout arrives next
// (Fig. 1(c)), corrects the policy lag with V-trace, and sends updated
// weights exactly to the contributing explorer.
type IMPALA struct {
	cfg    IMPALAConfig
	spec   ModelSpec
	rng    *rand.Rand
	policy *nn.Network
	value  *nn.Network
	pOpt   nn.Optimizer
	vOpt   nn.Optimizer

	mu      sync.Mutex
	queue   []*rollout.Batch
	version int64

	ws impalaWorkspace
}

// impalaWorkspace holds trainOn's batch tensors and vectors across calls, so
// a step on a batch shape seen before allocates nothing. Only trainOn (under
// mu) touches it.
type impalaWorkspace struct {
	boot                 tensor.Tensor // header over the bootstrap features
	x, logp, probs, grad *tensor.Tensor
	target, vGrad        *tensor.Tensor
	rho, c, vs           []float32
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are not cleared.
func resize(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// copyInto returns dst reshaped to src's shape (see tensor.Reuse) holding a
// copy of src.
func copyInto(dst, src *tensor.Tensor) *tensor.Tensor {
	dst = tensor.Reuse(dst, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

var _ core.Algorithm = (*IMPALA)(nil)

// NewIMPALA builds an IMPALA learner.
func NewIMPALA(spec ModelSpec, cfg IMPALAConfig, seed int64) *IMPALA {
	rng := rand.New(rand.NewSource(seed))
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	return &IMPALA{
		cfg:    cfg,
		spec:   spec,
		rng:    rng,
		policy: spec.BuildPolicy(rng),
		value:  spec.BuildValue(rng),
		pOpt:   nn.NewRMSProp(cfg.LR),
		vOpt:   nn.NewRMSProp(cfg.LR),
	}
}

// Name implements core.Algorithm.
func (im *IMPALA) Name() string { return "IMPALA" }

// PrepareData queues a batch; the oldest batches are dropped beyond
// MaxQueue.
func (im *IMPALA) PrepareData(b *rollout.Batch) {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.queue = append(im.queue, b)
	if len(im.queue) > im.cfg.MaxQueue {
		drop := len(im.queue) - im.cfg.MaxQueue
		im.queue = append(im.queue[:0], im.queue[drop:]...)
	}
}

// TryTrain implements core.Algorithm: one session per queued batch,
// broadcasting to the batch's producer only.
func (im *IMPALA) TryTrain() (core.TrainResult, bool, error) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if len(im.queue) == 0 {
		return core.TrainResult{}, false, nil
	}
	// Pop by shifting down, so the queue keeps its backing array (and
	// PrepareData's append does not reallocate) and drops its reference to
	// the batch it hands out.
	b := im.queue[0]
	n := copy(im.queue, im.queue[1:])
	im.queue[n] = nil
	im.queue = im.queue[:n]
	if len(b.Steps) == 0 {
		return core.TrainResult{}, false, fmt.Errorf("impala: empty batch from explorer %d", b.ExplorerID)
	}
	loss := im.trainOn(b)
	im.version++
	return core.TrainResult{
		StepsConsumed: len(b.Steps),
		Broadcast:     true,
		Targets:       []int32{b.ExplorerID},
		Loss:          loss,
	}, true, nil
}

// trainOn performs one V-trace actor-critic update (caller holds mu).
//
// Under the nn.Layer workspace contract a Forward result lasts only until
// the same network's next Forward: the bootstrap value is read before the
// value net's batch Forward, and the logits are copied into logp and probs,
// which the step keeps.
func (im *IMPALA) trainOn(b *rollout.Batch) float32 {
	n := len(b.Steps)
	ws := &im.ws
	ws.x = tensor.Reuse(ws.x, n, im.spec.FeatureDim)
	x := ws.x
	for i := range b.Steps {
		copy(x.Data[i*im.spec.FeatureDim:], im.spec.Featurize(b.Steps[i].Obs))
	}

	// Bootstrap value first: the later batch Forward must be the one whose
	// activations the value net caches for Backward.
	var bootstrap float32
	if !b.Steps[n-1].Done {
		feats := im.spec.Featurize(b.BootstrapObs)
		ws.boot = tensor.Tensor{Rows: 1, Cols: len(feats), Data: feats}
		bootstrap = im.value.Forward(&ws.boot).Data[0]
	}

	// Current-policy log-probs and values.
	im.policy.ZeroGrads()
	logits := im.policy.Forward(x)
	ws.logp = copyInto(ws.logp, logits)
	logp := ws.logp
	logp.LogSoftmaxRows()
	ws.probs = copyInto(ws.probs, logits)
	probs := ws.probs
	probs.SoftmaxRows()

	im.value.ZeroGrads()
	v := im.value.Forward(x)

	// Truncated importance weights against the recorded behavior logits.
	ws.rho, ws.c = resize(ws.rho, n), resize(ws.c, n)
	rho, c := ws.rho, ws.c
	for t := 0; t < n; t++ {
		s := &b.Steps[t]
		behaviorLP := behaviorLogProb(s.Logits, int(s.Action))
		ratio := float32(math.Exp(float64(logp.At(t, int(s.Action)) - behaviorLP)))
		rho[t] = minf(ratio, im.cfg.RhoBar)
		c[t] = minf(ratio, im.cfg.CBar)
	}

	// V-trace targets, computed backwards:
	// vs_t = V_t + δ_t + γ c_t (vs_{t+1} − V_{t+1}).
	ws.vs = resize(ws.vs, n+1)
	vs := ws.vs
	nextV := bootstrap
	vs[n] = bootstrap
	for t := n - 1; t >= 0; t-- {
		s := &b.Steps[t]
		mask := float32(1)
		if s.Done {
			mask = 0
			nextV = 0
			vs[t+1] = 0
		}
		delta := rho[t] * (s.Reward + im.cfg.Gamma*nextV*mask - v.Data[t])
		vs[t] = v.Data[t] + delta + im.cfg.Gamma*mask*c[t]*(vs[t+1]-nextV)
		nextV = v.Data[t]
	}

	// Policy gradient with V-trace advantages plus entropy bonus.
	ws.grad = tensor.Reuse(ws.grad, n, im.spec.NumActions)
	grad := ws.grad
	var totalLoss float32
	scale := 1 / float32(n)
	for t := 0; t < n; t++ {
		s := &b.Steps[t]
		mask := float32(1)
		if s.Done {
			mask = 0
		}
		adv := rho[t] * (s.Reward + im.cfg.Gamma*vs[t+1]*mask - v.Data[t])
		a := int(s.Action)
		totalLoss -= logp.At(t, a) * adv

		var entropy float32
		for col := 0; col < im.spec.NumActions; col++ {
			pc := probs.At(t, col)
			if pc > 1e-12 {
				entropy -= pc * float32(math.Log(float64(pc)))
			}
		}
		totalLoss -= im.cfg.EntropyCoef * entropy

		for col := 0; col < im.spec.NumActions; col++ {
			pc := probs.At(t, col)
			delta := float32(0)
			if col == a {
				delta = 1
			}
			g := -adv * (delta - pc)
			logPC := float32(math.Log(float64(pc + 1e-12)))
			g += im.cfg.EntropyCoef * pc * (logPC + entropy)
			grad.Set(t, col, g*scale)
		}
	}
	im.policy.Backward(grad)
	im.policy.ClipGradNorm(40)
	im.pOpt.Step(im.policy)

	// Value regression toward the V-trace targets.
	ws.target = tensor.Reuse(ws.target, n, 1)
	copy(ws.target.Data, vs[:n])
	ws.vGrad = tensor.Reuse(ws.vGrad, n, 1)
	vLoss := nn.MSELoss(v, ws.target, ws.vGrad)
	ws.vGrad.ScaleInPlace(im.cfg.ValueCoef)
	im.value.Backward(ws.vGrad)
	im.value.ClipGradNorm(40)
	im.vOpt.Step(im.value)

	return totalLoss*scale + im.cfg.ValueCoef*vLoss
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// behaviorLogProb computes log softmax(logits)[action] for the recorded
// behavior policy.
func behaviorLogProb(logits []float32, action int) float32 {
	if len(logits) == 0 || action >= len(logits) {
		return 0
	}
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxV))
	}
	return logits[action] - maxV - float32(math.Log(sum))
}

// Weights implements core.Algorithm.
func (im *IMPALA) Weights() *message.WeightsPayload {
	im.mu.Lock()
	defer im.mu.Unlock()
	return &message.WeightsPayload{
		Version: im.version,
		Data:    actorCriticWeights(im.policy, im.value),
	}
}

// LoadWeights restores the actor-critic parameters from a combined payload
// (PBT weight inheritance).
func (im *IMPALA) LoadWeights(data []float32) error {
	im.mu.Lock()
	defer im.mu.Unlock()
	if err := setActorCriticWeights(im.policy, im.value, data); err != nil {
		return fmt.Errorf("impala load: %w", err)
	}
	return nil
}

// RestoreWeights reinstates a checkpointed snapshot (parameters plus the
// version counter, so broadcasts resume the pre-crash sequence).
func (im *IMPALA) RestoreWeights(version int64, data []float32) error {
	if err := im.LoadWeights(data); err != nil {
		return err
	}
	im.mu.Lock()
	im.version = version
	im.mu.Unlock()
	return nil
}

// IMPALAAgent is the explorer side: stochastic policy sampling that records
// the behavior logits V-trace needs.
type IMPALAAgent struct {
	spec   ModelSpec
	policy *nn.Network
	value  *nn.Network
	rng    *rand.Rand

	version int64
	runner  *EnvRunner

	// x and logp are the per-step policy forward's input header and
	// log-prob workspace.
	x    tensor.Tensor
	logp *tensor.Tensor
}

var _ core.Agent = (*IMPALAAgent)(nil)

// NewIMPALAAgent builds an explorer agent for IMPALA.
func NewIMPALAAgent(spec ModelSpec, runner *EnvRunner, seed int64) *IMPALAAgent {
	rng := rand.New(rand.NewSource(seed))
	return &IMPALAAgent{
		spec:   spec,
		policy: spec.BuildPolicy(rng),
		value:  spec.BuildValue(rng),
		rng:    rng,
		runner: runner,
	}
}

// OnPolicy implements core.Agent: IMPALA tolerates policy lag.
func (a *IMPALAAgent) OnPolicy() bool { return false }

// SetWeights implements core.Agent.
func (a *IMPALAAgent) SetWeights(w *message.WeightsPayload) error {
	if err := setActorCriticWeights(a.policy, a.value, w.Data); err != nil {
		return fmt.Errorf("impala agent: %w", err)
	}
	a.version = w.Version
	return nil
}

// WeightsVersion implements core.Agent.
func (a *IMPALAAgent) WeightsVersion() int64 { return a.version }

// EpisodeStats implements core.Agent.
func (a *IMPALAAgent) EpisodeStats() (int64, float64) { return a.runner.EpisodeStats() }

// Rollout implements core.Agent.
func (a *IMPALAAgent) Rollout(n int) (*rollout.Batch, error) {
	return a.runner.Collect(n, a.version, func(feats []float32) (int, float32, float32, []float32) {
		a.x = tensor.Tensor{Rows: 1, Cols: len(feats), Data: feats}
		logits := a.policy.Forward(&a.x)
		a.logp = copyInto(a.logp, logits)
		a.logp.LogSoftmaxRows()
		action := sampleLogits(a.rng, a.logp)
		// The batch keeps the behavior logits, so they are copied out of the
		// network's workspace.
		behavior := append([]float32(nil), logits.Data...)
		return action, 0, a.logp.At(0, action), behavior
	})
}
