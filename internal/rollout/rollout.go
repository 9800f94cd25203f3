// Package rollout defines the trajectory data that explorers ship to the
// learner: rollout steps grouped into batches, the unit of the orange
// "rollout" arrows in the paper's Fig. 2.
package rollout

import "xingtian/internal/env"

// Step is one agent–environment interaction: the observation, the action
// taken, the reward received, and termination, plus the behavior-policy
// annotations that PPO (Value, LogProb) and IMPALA's V-trace (Logits) need.
type Step struct {
	Obs    env.Obs
	Action int32
	// ActionVec is the continuous action for DDPG-family algorithms;
	// nil for discrete-action steps.
	ActionVec []float32
	Reward    float32
	Done      bool
	Value     float32
	LogProb   float32
	Logits    []float32
}

// Batch is a contiguous fragment of experience from one explorer, generated
// under one version of the DNN parameters.
type Batch struct {
	// ExplorerID identifies the producing explorer.
	ExplorerID int32
	// WeightsVersion is the parameter version the behavior policy used.
	WeightsVersion int64
	// Steps are the rollout steps in time order.
	Steps []Step
	// BootstrapObs is the observation after the final step, used to
	// bootstrap value targets when the fragment ends mid-episode.
	BootstrapObs env.Obs
}

// SizeBytes estimates the logical size of the batch — observation payloads,
// every frame stack whole, plus fixed per-step fields and behavior logits. A
// rollout whose frame stacks shift goes on the wire smaller (see
// serialize.LogicalLen).
func (b *Batch) SizeBytes() int {
	total := 16 // header fields
	for i := range b.Steps {
		s := &b.Steps[i]
		total += s.Obs.SizeBytes() + 4 + 4 + 1 + 4 + 4 + 4*len(s.Logits) + 4*len(s.ActionVec)
	}
	total += b.BootstrapObs.SizeBytes()
	return total
}
