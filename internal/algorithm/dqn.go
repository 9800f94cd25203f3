package algorithm

import (
	"fmt"
	"math/rand"
	"sync"

	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/nn"
	"xingtian/internal/replay"
	"xingtian/internal/rollout"
	"xingtian/internal/tensor"
)

// DQNConfig holds DQN hyperparameters. The defaults follow the paper's
// setup (§5.2): replay capacity 1M, training starts at 20k stored steps,
// one 32-step session per 4 inserted steps, weights broadcast periodically.
type DQNConfig struct {
	ReplayCapacity  int
	TrainStart      int // stored steps before the first session
	TrainEvery      int // inserts per training session
	BatchSize       int
	Gamma           float32
	LR              float32
	TargetSyncEvery int // sessions between target-network syncs
	BroadcastEvery  int // sessions between weight broadcasts
	// Prioritized switches the replay buffer to proportional prioritized
	// sampling (Schaul et al., 2016) with the exponents below
	// (defaults: α = 0.6, β = 0.4).
	Prioritized   bool
	PriorityAlpha float64
	PriorityBeta  float64
	// Double applies the Double-DQN estimator (van Hasselt et al., 2016):
	// the online network selects the bootstrap action, the target network
	// evaluates it, reducing overestimation bias.
	Double bool
}

// DefaultDQNConfig returns the paper's DQN setup, scaled for the simulator
// (replay 1M, start 20k are kept; override in quick tests).
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		ReplayCapacity:  1_000_000,
		TrainStart:      20_000,
		TrainEvery:      4,
		BatchSize:       32,
		Gamma:           0.99,
		LR:              1e-3,
		TargetSyncEvery: 100,
		BroadcastEvery:  10,
	}
}

// DQN is the learner side of Deep Q-Learning. The replay buffer lives here,
// inside the trainer thread, so sampling never crosses a process boundary —
// the design decision the paper's Fig. 9 quantifies.
type DQN struct {
	cfg    DQNConfig
	spec   ModelSpec
	rng    *rand.Rand
	online *nn.Network
	target *nn.Network
	opt    nn.Optimizer
	buffer *replay.Buffer
	prio   *replay.PrioritizedBuffer

	mu                sync.Mutex
	version           int64
	insertsSinceTrain int
	sessions          int
}

var _ core.Algorithm = (*DQN)(nil)

// NewDQN builds a DQN learner.
func NewDQN(spec ModelSpec, cfg DQNConfig, seed int64) *DQN {
	rng := rand.New(rand.NewSource(seed))
	online := spec.BuildQ(rng)
	target := spec.BuildQ(rng)
	// Target starts as a copy of the online network.
	if err := target.CopyWeightsFrom(online); err != nil {
		panic(fmt.Sprintf("dqn: target init: %v", err)) // identical architectures by construction
	}
	d := &DQN{
		cfg:    cfg,
		spec:   spec,
		rng:    rng,
		online: online,
		target: target,
		opt:    nn.NewAdam(cfg.LR),
	}
	if cfg.Prioritized {
		alpha := cfg.PriorityAlpha
		if alpha == 0 {
			alpha = 0.6
		}
		d.cfg.PriorityAlpha = alpha
		if d.cfg.PriorityBeta == 0 {
			d.cfg.PriorityBeta = 0.4
		}
		d.prio = replay.NewPrioritizedBuffer(cfg.ReplayCapacity, alpha)
	} else {
		d.buffer = replay.NewBuffer(cfg.ReplayCapacity)
	}
	return d
}

// replayLen reports buffer occupancy regardless of variant (caller holds mu).
func (d *DQN) replayLen() int {
	if d.prio != nil {
		return d.prio.Len()
	}
	return d.buffer.Len()
}

// Name implements core.Algorithm.
func (d *DQN) Name() string { return "DQN" }

// PrepareData converts rollout steps to transitions and stores them in the
// local replay buffer.
func (d *DQN) PrepareData(b *rollout.Batch) {
	ts := d.FeaturizeBatch(b)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range ts {
		if d.prio != nil {
			d.prio.Add(t)
		} else {
			d.buffer.Add(t)
		}
		d.insertsSinceTrain++
	}
}

// TryTrain implements core.Algorithm: one session per TrainEvery inserts
// once the buffer holds TrainStart steps.
func (d *DQN) TryTrain() (core.TrainResult, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.replayLen() < d.cfg.TrainStart || d.insertsSinceTrain < d.cfg.TrainEvery {
		return core.TrainResult{}, false, nil
	}
	d.insertsSinceTrain -= d.cfg.TrainEvery

	var loss float32
	if d.prio != nil {
		batch, indices, isWeights, err := d.prio.Sample(d.rng, d.cfg.BatchSize, d.cfg.PriorityBeta)
		if err != nil {
			return core.TrainResult{}, false, fmt.Errorf("dqn: %w", err)
		}
		var tdErrors []float64
		loss, tdErrors, err = d.trainOnWeighted(batch, isWeights)
		if err != nil {
			return core.TrainResult{}, false, err
		}
		if err := d.prio.UpdatePriorities(indices, tdErrors); err != nil {
			return core.TrainResult{}, false, fmt.Errorf("dqn: %w", err)
		}
	} else {
		batch, err := d.buffer.Sample(d.rng, d.cfg.BatchSize)
		if err != nil {
			return core.TrainResult{}, false, fmt.Errorf("dqn: %w", err)
		}
		loss, err = d.trainOn(batch)
		if err != nil {
			return core.TrainResult{}, false, err
		}
	}

	d.sessions++
	if d.cfg.TargetSyncEvery > 0 && d.sessions%d.cfg.TargetSyncEvery == 0 {
		if err := d.target.CopyWeightsFrom(d.online); err != nil {
			return core.TrainResult{}, false, fmt.Errorf("dqn: target sync: %w", err)
		}
	}
	broadcast := d.cfg.BroadcastEvery > 0 && d.sessions%d.cfg.BroadcastEvery == 0
	if broadcast {
		d.version++
	}
	return core.TrainResult{
		StepsConsumed: d.cfg.BatchSize,
		Broadcast:     broadcast,
		Loss:          loss,
	}, true, nil
}

// trainOn performs one gradient step on a sampled batch (caller holds mu).
func (d *DQN) trainOn(batch []replay.Transition) (float32, error) {
	loss, _, err := d.trainOnWeighted(batch, nil)
	return loss, err
}

// trainOnWeighted performs one gradient step with optional importance-
// sampling weights, returning the per-sample absolute TD errors for
// priority updates (caller holds mu).
func (d *DQN) trainOnWeighted(batch []replay.Transition, isWeights []float32) (float32, []float64, error) {
	n := len(batch)
	obs := tensor.New(n, d.spec.FeatureDim)
	next := tensor.New(n, d.spec.FeatureDim)
	for i, t := range batch {
		copy(obs.Data[i*d.spec.FeatureDim:], t.Obs)
		if !t.Done {
			copy(next.Data[i*d.spec.FeatureDim:], t.NextObs)
		}
	}

	// Bellman targets from the target network; with Double-DQN the online
	// network picks the action and the target network scores it.
	//
	// Under the nn.Layer workspace contract onlineNext is valid only until
	// the online network's next Forward (the batch forward below). It is
	// read only in the targets loop, before that call.
	nextQ := d.target.Forward(next)
	var onlineNext *tensor.Tensor
	if d.cfg.Double {
		onlineNext = d.online.Forward(next)
	}
	targets := make([]float32, n)
	for i, t := range batch {
		targets[i] = t.Reward
		if !t.Done {
			if d.cfg.Double {
				targets[i] += d.cfg.Gamma * nextQ.At(i, onlineNext.ArgMaxRow(i))
			} else {
				targets[i] += d.cfg.Gamma * nextQ.MaxRow(i)
			}
		}
	}

	d.online.ZeroGrads()
	q := d.online.Forward(obs)
	// Huber loss on the taken action's Q only, optionally scaled by
	// importance-sampling weights.
	grad := tensor.New(q.Rows, q.Cols)
	tdErrors := make([]float64, n)
	var loss float32
	for i, t := range batch {
		pred := q.At(i, t.Action)
		diff := pred - targets[i]
		abs := diff
		if abs < 0 {
			abs = -abs
		}
		tdErrors[i] = float64(abs)
		w := float32(1)
		if isWeights != nil {
			w = isWeights[i]
		}
		var g float32
		if abs <= 1 {
			loss += w * 0.5 * diff * diff
			g = w * diff
		} else {
			loss += w * (abs - 0.5)
			if diff > 0 {
				g = w
			} else {
				g = -w
			}
		}
		grad.Set(i, t.Action, g/float32(n))
	}
	d.online.Backward(grad)
	d.online.ClipGradNorm(10)
	d.opt.Step(d.online)
	return loss / float32(n), tdErrors, nil
}

// LoadWeights restores the online (and target) network parameters, e.g.
// when a PBT population inherits the best population's weights.
func (d *DQN) LoadWeights(data []float32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.online.SetFlatWeights(data); err != nil {
		return fmt.Errorf("dqn load: %w", err)
	}
	if err := d.target.SetFlatWeights(data); err != nil {
		return fmt.Errorf("dqn load target: %w", err)
	}
	return nil
}

// RestoreWeights reinstates a checkpointed snapshot: the parameters are
// loaded into the online and target networks and the weights version is
// moved to the checkpoint's, so post-restore broadcasts continue the
// pre-crash version sequence instead of restarting from zero.
func (d *DQN) RestoreWeights(version int64, data []float32) error {
	if err := d.LoadWeights(data); err != nil {
		return err
	}
	d.mu.Lock()
	d.version = version
	d.mu.Unlock()
	return nil
}

// Config returns the learner's hyperparameters.
func (d *DQN) Config() DQNConfig { return d.cfg }

// FeaturizeBatch converts a rollout batch into replay transitions — shared
// by the internal path (PrepareData) and external replay actors
// (the RLLib-model baseline hosts the buffer in a separate process).
func (d *DQN) FeaturizeBatch(b *rollout.Batch) []replay.Transition {
	out := make([]replay.Transition, 0, len(b.Steps))
	for i := range b.Steps {
		s := &b.Steps[i]
		var next []float32
		if !s.Done {
			if i+1 < len(b.Steps) {
				next = d.spec.Featurize(b.Steps[i+1].Obs)
			} else {
				next = d.spec.Featurize(b.BootstrapObs)
			}
		}
		out = append(out, replay.Transition{
			Obs:     d.spec.Featurize(s.Obs),
			NextObs: next,
			Action:  int(s.Action),
			Reward:  s.Reward,
			Done:    s.Done,
		})
	}
	return out
}

// TrainOnTransitions runs one session on externally sampled transitions,
// bypassing the internal buffer. Used by baselines whose replay buffer
// lives in another process.
func (d *DQN) TrainOnTransitions(batch []replay.Transition) (core.TrainResult, error) {
	if len(batch) == 0 {
		return core.TrainResult{}, fmt.Errorf("dqn: empty external batch")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	loss, err := d.trainOn(batch)
	if err != nil {
		return core.TrainResult{}, err
	}
	d.sessions++
	if d.cfg.TargetSyncEvery > 0 && d.sessions%d.cfg.TargetSyncEvery == 0 {
		if err := d.target.CopyWeightsFrom(d.online); err != nil {
			return core.TrainResult{}, fmt.Errorf("dqn: target sync: %w", err)
		}
	}
	broadcast := d.cfg.BroadcastEvery > 0 && d.sessions%d.cfg.BroadcastEvery == 0
	if broadcast {
		d.version++
	}
	return core.TrainResult{StepsConsumed: len(batch), Broadcast: broadcast, Loss: loss}, nil
}

// Weights implements core.Algorithm.
func (d *DQN) Weights() *message.WeightsPayload {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &message.WeightsPayload{Version: d.version, Data: d.online.FlatWeights()}
}

// ReplayLen exposes the buffer occupancy for tests and experiments.
func (d *DQN) ReplayLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayLen()
}

// SampleLatencyProbe samples one batch and reports only the sampling cost —
// the Fig. 9(b) "XingTian local replay" measurement.
func (d *DQN) SampleLatencyProbe() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.replayLen() == 0 {
		return fmt.Errorf("dqn: probe on empty buffer")
	}
	if d.prio != nil {
		_, _, _, err := d.prio.Sample(d.rng, d.cfg.BatchSize, d.cfg.PriorityBeta)
		return err
	}
	_, err := d.buffer.Sample(d.rng, d.cfg.BatchSize)
	return err
}

// DQNAgent is the explorer side: ε-greedy action selection over a local
// copy of the Q network.
type DQNAgent struct {
	spec ModelSpec
	net  *nn.Network
	rng  *rand.Rand

	epsilon      float64
	epsilonMin   float64
	epsilonDecay float64

	version int64
	runner  *EnvRunner
}

var _ core.Agent = (*DQNAgent)(nil)

// NewDQNAgent builds an explorer agent for DQN.
func NewDQNAgent(spec ModelSpec, runner *EnvRunner, seed int64) *DQNAgent {
	rng := rand.New(rand.NewSource(seed))
	return &DQNAgent{
		spec:         spec,
		net:          spec.BuildQ(rng),
		rng:          rng,
		epsilon:      1.0,
		epsilonMin:   0.05,
		epsilonDecay: 0.999,
		runner:       runner,
	}
}

// OnPolicy implements core.Agent: DQN explores with stale weights freely.
func (a *DQNAgent) OnPolicy() bool { return false }

// SetWeights implements core.Agent.
func (a *DQNAgent) SetWeights(w *message.WeightsPayload) error {
	if err := a.net.SetFlatWeights(w.Data); err != nil {
		return fmt.Errorf("dqn agent: %w", err)
	}
	a.version = w.Version
	return nil
}

// WeightsVersion implements core.Agent.
func (a *DQNAgent) WeightsVersion() int64 { return a.version }

// EpisodeStats implements core.Agent.
func (a *DQNAgent) EpisodeStats() (int64, float64) { return a.runner.EpisodeStats() }

// Rollout implements core.Agent: n steps of ε-greedy interaction.
func (a *DQNAgent) Rollout(n int) (*rollout.Batch, error) {
	return a.runner.Collect(n, a.version, func(feats []float32) (int, float32, float32, []float32) {
		if a.rng.Float64() < a.epsilon {
			a.decayEpsilon()
			return a.rng.Intn(a.spec.NumActions), 0, 0, nil
		}
		a.decayEpsilon()
		q := a.net.Forward(tensor.FromSlice(1, len(feats), feats))
		return q.ArgMaxRow(0), 0, 0, nil
	})
}

func (a *DQNAgent) decayEpsilon() {
	if a.epsilon > a.epsilonMin {
		a.epsilon *= a.epsilonDecay
		if a.epsilon < a.epsilonMin {
			a.epsilon = a.epsilonMin
		}
	}
}
