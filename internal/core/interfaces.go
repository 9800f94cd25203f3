// Package core implements XingTian's decentralized computation layer: the
// explorer and learner processes (workhorse and sender threads, plus the
// learner's receiver thread), the controller that manages their life cycle,
// and the researcher-facing Agent/Algorithm interfaces of the paper's §4.2.
//
// There is deliberately no task graph and no central scheduler: explorers
// and the learner are driven purely by the arrival of the data they await
// (weights and rollouts respectively) and push what they produce into the
// asynchronous channel immediately.
package core

import (
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// Agent is the explorer-side interface (the paper's Agent class): it owns
// copies of the DNNs, decides actions (infer_action), and assembles rollout
// fragments from environment feedback (handle_env_feedback).
type Agent interface {
	// Rollout interacts with the environment for up to n steps and returns
	// the assembled batch.
	Rollout(n int) (*rollout.Batch, error)
	// SetWeights installs a full parameter vector and its version. It is
	// the only install: the explorer hands it every dense snapshot as
	// delivered and, for a sparse delta, the vector it reconstructed on its
	// own mirror of the agent's weights (an empty version bump included).
	// It copies w.Data, never retains it: the explorer reuses that vector
	// for the next delta. An error leaves the agent on its previous weights.
	SetWeights(w *message.WeightsPayload) error
	// WeightsVersion returns the version currently applied.
	WeightsVersion() int64
	// OnPolicy reports whether the agent must wait for fresh weights after
	// shipping each rollout (PPO) or may keep sampling with stale ones
	// (DQN, IMPALA).
	OnPolicy() bool
	// EpisodeStats reports completed episodes and their mean return over
	// the most recent window.
	EpisodeStats() (episodes int64, meanReturn float64)
}

// TrainResult describes one completed training session.
type TrainResult struct {
	// StepsConsumed is the number of rollout steps used by the session
	// (the unit of the paper's throughput metric).
	StepsConsumed int
	// Broadcast indicates new weights should be sent out now.
	Broadcast bool
	// Targets lists explorer IDs to receive the weights; nil means all
	// explorers (IMPALA sends exactly to the contributors, DQN/PPO to
	// everyone).
	Targets []int32
	// Loss is the session's training loss, for diagnostics.
	Loss float32
}

// Algorithm is the learner-side interface (the paper's Algorithm class):
// prepare_data ingests rollouts (including replay-buffer maintenance, which
// XingTian keeps inside the trainer thread) and train runs optimization
// sessions.
type Algorithm interface {
	// Name identifies the algorithm ("DQN", "PPO", "IMPALA").
	Name() string
	// PrepareData ingests one received rollout batch.
	PrepareData(b *rollout.Batch)
	// TryTrain runs a training session if the algorithm has enough data,
	// returning ok=false when it must wait for more rollouts.
	TryTrain() (res TrainResult, ok bool, err error)
	// Weights snapshots the current parameters for broadcast.
	Weights() *message.WeightsPayload
	// WeightsRestorer is the only install on the learner side: session
	// resume, a respawned replica's checkpoint and every aggregate echo a
	// learn replica receives go through RestoreWeights.
	WeightsRestorer
}

// WeightsRestorer reinstates a parameter vector together with its version
// counter, so versions continue from a checkpoint or an aggregate instead
// of restarting from zero. It copies data, never retains it.
type WeightsRestorer interface {
	RestoreWeights(version int64, data []float32) error
}

// AgentFactory builds the agent for one explorer. Factories receive the
// explorer's ID and a derived seed so parallel explorers diversify the
// state space (the point of parallel sampling).
type AgentFactory func(explorerID int32, seed int64) (Agent, error)

// AlgorithmFactory builds the learner's algorithm instance.
type AlgorithmFactory func(seed int64) (Algorithm, error)
