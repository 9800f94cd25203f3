package algorithm

import (
	"fmt"
	"math/rand"
	"sync"

	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/nn"
	"xingtian/internal/replay"
	"xingtian/internal/rollout"
	"xingtian/internal/tensor"
)

// DDPGConfig holds DDPG hyperparameters (Lillicrap et al., 2016).
type DDPGConfig struct {
	ReplayCapacity int
	TrainStart     int
	TrainEvery     int
	BatchSize      int
	Gamma          float32
	ActorLR        float32
	CriticLR       float32
	// Tau is the soft target-update coefficient: θ' ← τθ + (1−τ)θ'.
	Tau            float32
	BroadcastEvery int
}

// DefaultDDPGConfig returns standard DDPG hyperparameters.
func DefaultDDPGConfig() DDPGConfig {
	return DDPGConfig{
		ReplayCapacity: 100_000,
		TrainStart:     1_000,
		TrainEvery:     1,
		BatchSize:      64,
		Gamma:          0.99,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		Tau:            0.005,
		BroadcastEvery: 10,
	}
}

// ContinuousSpec describes the actor-critic networks for a continuous-
// control environment.
type ContinuousSpec struct {
	FeatureDim  int
	ActionDim   int
	ActionBound float32
	Hidden      []int
}

// ContinuousSpecFor derives a spec from a continuous environment.
func ContinuousSpecFor(e env.ContinuousEnv) ContinuousSpec {
	return ContinuousSpec{
		FeatureDim:  e.FeatureDim(),
		ActionDim:   e.ActionDim(),
		ActionBound: e.ActionBound(),
		Hidden:      []int{64, 64},
	}
}

// buildActor returns a network mapping state → pre-tanh action.
func (s ContinuousSpec) buildActor(rng *rand.Rand) *nn.Network {
	layers := make([]nn.Layer, 0, 2*len(s.Hidden)+2)
	in := s.FeatureDim
	for _, h := range s.Hidden {
		layers = append(layers, nn.NewDense(rng, in, h), nn.NewReLU())
		in = h
	}
	layers = append(layers, nn.NewDense(rng, in, s.ActionDim), nn.NewTanh())
	return nn.NewNetwork(layers...)
}

// buildCritic returns a network mapping concat(state, action) → Q.
func (s ContinuousSpec) buildCritic(rng *rand.Rand) *nn.Network {
	layers := make([]nn.Layer, 0, 2*len(s.Hidden)+1)
	in := s.FeatureDim + s.ActionDim
	for _, h := range s.Hidden {
		layers = append(layers, nn.NewDense(rng, in, h), nn.NewReLU())
		in = h
	}
	layers = append(layers, nn.NewDense(rng, in, 1))
	return nn.NewNetwork(layers...)
}

// DDPG is the learner side of Deep Deterministic Policy Gradient: an
// off-policy actor-critic for continuous action spaces, with target
// networks soft-updated every session and the replay buffer inside the
// trainer thread, like DQN.
type DDPG struct {
	cfg          DDPGConfig
	spec         ContinuousSpec
	rng          *rand.Rand
	actor        *nn.Network
	critic       *nn.Network
	actorTarget  *nn.Network
	criticTarget *nn.Network
	actorOpt     nn.Optimizer
	criticOpt    nn.Optimizer
	buffer       *replay.Buffer

	mu                sync.Mutex
	version           int64
	insertsSinceTrain int
	sessions          int
}

var _ core.Algorithm = (*DDPG)(nil)

// NewDDPG builds a DDPG learner.
func NewDDPG(spec ContinuousSpec, cfg DDPGConfig, seed int64) *DDPG {
	rng := rand.New(rand.NewSource(seed))
	d := &DDPG{
		cfg:          cfg,
		spec:         spec,
		rng:          rng,
		actor:        spec.buildActor(rng),
		critic:       spec.buildCritic(rng),
		actorTarget:  spec.buildActor(rng),
		criticTarget: spec.buildCritic(rng),
		actorOpt:     nn.NewAdam(cfg.ActorLR),
		criticOpt:    nn.NewAdam(cfg.CriticLR),
		buffer:       replay.NewBuffer(cfg.ReplayCapacity),
	}
	// Targets start as exact copies.
	if err := d.actorTarget.CopyWeightsFrom(d.actor); err != nil {
		panic(fmt.Sprintf("ddpg: target init: %v", err))
	}
	if err := d.criticTarget.CopyWeightsFrom(d.critic); err != nil {
		panic(fmt.Sprintf("ddpg: target init: %v", err))
	}
	return d
}

// Name implements core.Algorithm.
func (d *DDPG) Name() string { return "DDPG" }

// PrepareData stores continuous transitions in the local replay buffer.
func (d *DDPG) PrepareData(b *rollout.Batch) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range b.Steps {
		s := &b.Steps[i]
		var next []float32
		if !s.Done {
			if i+1 < len(b.Steps) {
				next = b.Steps[i+1].Obs.Vec
			} else {
				next = b.BootstrapObs.Vec
			}
		}
		d.buffer.Add(replay.Transition{
			Obs:       s.Obs.Vec,
			NextObs:   next,
			ActionVec: s.ActionVec,
			Reward:    s.Reward,
			Done:      s.Done,
		})
		d.insertsSinceTrain++
	}
}

// TryTrain implements core.Algorithm.
func (d *DDPG) TryTrain() (core.TrainResult, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.buffer.Len() < d.cfg.TrainStart || d.insertsSinceTrain < d.cfg.TrainEvery {
		return core.TrainResult{}, false, nil
	}
	d.insertsSinceTrain -= d.cfg.TrainEvery

	batch, err := d.buffer.Sample(d.rng, d.cfg.BatchSize)
	if err != nil {
		return core.TrainResult{}, false, fmt.Errorf("ddpg: %w", err)
	}
	loss := d.trainOn(batch)

	d.sessions++
	d.softUpdate(d.actorTarget, d.actor)
	d.softUpdate(d.criticTarget, d.critic)

	broadcast := d.cfg.BroadcastEvery > 0 && d.sessions%d.cfg.BroadcastEvery == 0
	if broadcast {
		d.version++
	}
	return core.TrainResult{
		StepsConsumed: len(batch),
		Broadcast:     broadcast,
		Loss:          loss,
	}, true, nil
}

// trainOn performs one critic + actor update (caller holds mu).
func (d *DDPG) trainOn(batch []replay.Transition) float32 {
	n := len(batch)
	fd, ad := d.spec.FeatureDim, d.spec.ActionDim

	obs := tensor.New(n, fd)
	next := tensor.New(n, fd)
	for i, t := range batch {
		copy(obs.Data[i*fd:], t.Obs)
		if !t.Done {
			copy(next.Data[i*fd:], t.NextObs)
		}
	}

	// Critic targets: r + γ Q'(s', μ'(s')).
	//
	// Under the nn.Layer workspace contract a Forward result is the
	// network's own buffer until its next Forward. The actor outputs are
	// cloned before they are scaled in place, so the scaling never writes
	// into a workspace (the actor's Tanh reads its output back in
	// Backward); q, qPi and dInput are read before their network's next
	// call.
	nextAct := d.actorTarget.Forward(next).Clone()
	nextAct.ScaleInPlace(d.spec.ActionBound)
	nextQ := d.criticTarget.Forward(concat(next, nextAct))
	targets := tensor.New(n, 1)
	for i, t := range batch {
		targets.Data[i] = t.Reward
		if !t.Done {
			targets.Data[i] += d.cfg.Gamma * nextQ.Data[i]
		}
	}

	// Critic regression.
	sa := tensor.New(n, fd+ad)
	for i, t := range batch {
		copy(sa.Data[i*(fd+ad):], t.Obs)
		copy(sa.Data[i*(fd+ad)+fd:], t.ActionVec)
	}
	d.critic.ZeroGrads()
	q := d.critic.Forward(sa)
	grad := tensor.New(n, 1)
	criticLoss := nn.MSELoss(q, targets, grad)
	d.critic.Backward(grad)
	d.critic.ClipGradNorm(10)
	d.criticOpt.Step(d.critic)

	// Actor ascent on Q(s, μ(s)): the critic's input gradient w.r.t. the
	// action slice drives the actor through the tanh scaling.
	act := d.actor.Forward(obs).Clone()
	scaled := act.Clone()
	scaled.ScaleInPlace(d.spec.ActionBound)
	d.critic.ZeroGrads()
	qPi := d.critic.Forward(concat(obs, scaled))
	dQ := tensor.New(n, 1)
	dQ.Fill(-1.0 / float32(n)) // maximize Q → descend −Q
	dInput := d.critic.Backward(dQ)
	d.critic.ZeroGrads() // discard critic grads from the actor pass

	dAct := tensor.New(n, ad)
	for i := 0; i < n; i++ {
		for j := 0; j < ad; j++ {
			dAct.Data[i*ad+j] = dInput.At(i, fd+j) * d.spec.ActionBound
		}
	}
	d.actor.ZeroGrads()
	// Re-run the forward so the actor's caches match this batch, then
	// backprop the critic's action gradient.
	d.actor.Forward(obs)
	d.actor.Backward(dAct)
	d.actor.ClipGradNorm(10)
	d.actorOpt.Step(d.actor)

	_ = qPi
	return criticLoss
}

// softUpdate blends dst ← τ·src + (1−τ)·dst.
func (d *DDPG) softUpdate(dst, src *nn.Network) {
	tau := d.cfg.Tau
	dw := dst.FlatWeights()
	sw := src.FlatWeights()
	for i := range dw {
		dw[i] = tau*sw[i] + (1-tau)*dw[i]
	}
	if err := dst.SetFlatWeights(dw); err != nil {
		panic(fmt.Sprintf("ddpg: soft update: %v", err)) // identical shapes by construction
	}
}

// Weights implements core.Algorithm: the actor parameters (what explorers
// need to act).
func (d *DDPG) Weights() *message.WeightsPayload {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &message.WeightsPayload{Version: d.version, Data: d.actor.FlatWeights()}
}

// LoadWeights restores the actor (and its target).
func (d *DDPG) LoadWeights(data []float32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.actor.SetFlatWeights(data); err != nil {
		return fmt.Errorf("ddpg load: %w", err)
	}
	if err := d.actorTarget.SetFlatWeights(data); err != nil {
		return fmt.Errorf("ddpg load target: %w", err)
	}
	return nil
}

// RestoreWeights reinstates a checkpointed snapshot (actor parameters plus
// the version counter, so broadcasts resume the pre-crash sequence).
func (d *DDPG) RestoreWeights(version int64, data []float32) error {
	if err := d.LoadWeights(data); err != nil {
		return err
	}
	d.mu.Lock()
	d.version = version
	d.mu.Unlock()
	return nil
}

// ReplayLen exposes buffer occupancy.
func (d *DDPG) ReplayLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buffer.Len()
}

// concat joins two equal-row tensors column-wise.
func concat(a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("ddpg: concat rows %d vs %d", a.Rows, b.Rows))
	}
	out := tensor.New(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Data[r*(a.Cols+b.Cols):], a.Data[r*a.Cols:(r+1)*a.Cols])
		copy(out.Data[r*(a.Cols+b.Cols)+a.Cols:], b.Data[r*b.Cols:(r+1)*b.Cols])
	}
	return out
}

// ContinuousEnvRunner drives a continuous environment, the analogue of
// EnvRunner for the DDPG family.
type ContinuousEnvRunner struct {
	e        env.ContinuousEnv
	current  env.Obs
	started  bool
	episodes int64
	returns  []float64
	running  float64
}

// NewContinuousEnvRunner wraps a continuous environment.
func NewContinuousEnvRunner(e env.ContinuousEnv) *ContinuousEnvRunner {
	return &ContinuousEnvRunner{e: e}
}

// EpisodeStats reports episodes and mean return over the last 20.
func (r *ContinuousEnvRunner) EpisodeStats() (int64, float64) {
	if len(r.returns) == 0 {
		return 0, 0
	}
	start := 0
	if len(r.returns) > 20 {
		start = len(r.returns) - 20
	}
	var sum float64
	for _, v := range r.returns[start:] {
		sum += v
	}
	return r.episodes, sum / float64(len(r.returns)-start)
}

// Collect runs the continuous policy for n steps.
func (r *ContinuousEnvRunner) Collect(n int, weightsVersion int64, policy func(obs []float32) []float32) (*rollout.Batch, error) {
	if !r.started {
		obs, err := r.e.Reset()
		if err != nil {
			return nil, fmt.Errorf("continuous runner reset: %w", err)
		}
		r.current = obs
		r.started = true
	}
	b := &rollout.Batch{WeightsVersion: weightsVersion, Steps: make([]rollout.Step, 0, n)}
	for i := 0; i < n; i++ {
		action := policy(r.current.Vec)
		next, reward, done, err := r.e.StepContinuous(action)
		if err != nil {
			return nil, fmt.Errorf("continuous runner step: %w", err)
		}
		b.Steps = append(b.Steps, rollout.Step{
			Obs:       r.current,
			ActionVec: action,
			Reward:    float32(reward),
			Done:      done,
		})
		r.running += reward
		if done {
			r.episodes++
			r.returns = append(r.returns, r.running)
			r.running = 0
			next, err = r.e.Reset()
			if err != nil {
				return nil, fmt.Errorf("continuous runner reset: %w", err)
			}
		}
		r.current = next
	}
	b.BootstrapObs = r.current
	return b, nil
}

// DDPGAgent is the explorer side: the deterministic actor plus Gaussian
// exploration noise.
type DDPGAgent struct {
	spec   ContinuousSpec
	actor  *nn.Network
	rng    *rand.Rand
	runner *ContinuousEnvRunner

	// NoiseStd is the exploration noise scale (fraction of ActionBound).
	NoiseStd float64

	version int64
}

var _ core.Agent = (*DDPGAgent)(nil)

// NewDDPGAgent builds an explorer agent for DDPG.
func NewDDPGAgent(spec ContinuousSpec, runner *ContinuousEnvRunner, seed int64) *DDPGAgent {
	rng := rand.New(rand.NewSource(seed))
	return &DDPGAgent{
		spec:     spec,
		actor:    spec.buildActor(rng),
		rng:      rng,
		runner:   runner,
		NoiseStd: 0.1,
	}
}

// OnPolicy implements core.Agent.
func (a *DDPGAgent) OnPolicy() bool { return false }

// SetWeights implements core.Agent.
func (a *DDPGAgent) SetWeights(w *message.WeightsPayload) error {
	if err := a.actor.SetFlatWeights(w.Data); err != nil {
		return fmt.Errorf("ddpg agent: %w", err)
	}
	a.version = w.Version
	return nil
}

// WeightsVersion implements core.Agent.
func (a *DDPGAgent) WeightsVersion() int64 { return a.version }

// EpisodeStats implements core.Agent.
func (a *DDPGAgent) EpisodeStats() (int64, float64) { return a.runner.EpisodeStats() }

// Rollout implements core.Agent.
func (a *DDPGAgent) Rollout(n int) (*rollout.Batch, error) {
	return a.runner.Collect(n, a.version, func(obs []float32) []float32 {
		x := tensor.FromSlice(1, len(obs), obs)
		raw := a.actor.Forward(x)
		action := make([]float32, a.spec.ActionDim)
		bound := float64(a.spec.ActionBound)
		for j := 0; j < a.spec.ActionDim; j++ {
			v := float64(raw.Data[j])*bound + a.rng.NormFloat64()*a.NoiseStd*bound
			if v > bound {
				v = bound
			} else if v < -bound {
				v = -bound
			}
			action[j] = float32(v)
		}
		return action
	})
}
