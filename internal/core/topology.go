package core

import "fmt"

// BroadcastName is the canonical client name of the broadcast fragment.
const BroadcastName = "broadcaster"

// LearnName formats the canonical client name of a learn-fragment replica.
func LearnName(i int) string { return fmt.Sprintf("learn-%d", i) }

// replicaNames lists the client names of learn replicas 0…n-1.
func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = LearnName(i)
	}
	return names
}

// StalenessUnbounded disables the learn replicas' ingest staleness bound:
// rollouts are trained on regardless of how many weight versions behind
// they are.
const StalenessUnbounded = -1

// Topology describes how the training loop's fragments are replicated and
// placed. The zero value is the fused compatibility topology: the learn and
// broadcast fragments run fused inside one learn loop on machine 0 that
// plans its own broadcasts, reproducing the seed's explorer→broker→learner
// loop. Any non-fused topology runs the fragment runtime instead: explorers
// dispatch rollouts straight to N learn replicas, which train on them under
// a bounded-staleness rule, and a broadcast fragment aggregates replica
// weights and plans the broadcasts back to every explorer.
type Topology struct {
	// Learners replicates the learn fragment. 0 keeps the fused loop; 1
	// runs a single learn fragment on the fragment runtime; values
	// > 1 replicate it.
	Learners int
	// SampleMachine is ignored. It placed the sample fragment, a stage
	// between explorers and learn replicas that explorers' own dispatch
	// replaced; it stays so deployments that set it still build.
	SampleMachine int
	// BroadcastMachine places the broadcast fragment (default machine 0).
	BroadcastMachine int
	// LearnMachines places each learn replica; nil places all replicas on
	// machine 0, otherwise its length must equal the replica count.
	LearnMachines []int
	// MaxStaleness bounds rollout age in weight versions: a learn replica
	// trains on a rollout generated under weights version v only while the
	// committed version c of its newest aggregate echo satisfies c-v <=
	// MaxStaleness. 0 is strict assignment order (only rollouts from the
	// current weights are trained on); StalenessUnbounded (-1, or any
	// negative value) disables the bound. Ignored when fused.
	MaxStaleness int `flag:"staleness" json:"max_staleness" help:"max rollout staleness in weight versions at learn-replica ingest: 0 = strict assignment order, -1 = unbounded (with -topology replicated)"`
}

// ReplicatedTopology returns a fragment topology with n learn replicas on
// machine 0 and an unbounded staleness edge — the multi-learner scaling
// configuration. Only tests build it (the fragment, failover, supervision
// and validation tests and bench_test.go); xt-train and the benchmark set
// Topology's fields directly.
func ReplicatedTopology(n int) Topology {
	return Topology{Learners: n, MaxStaleness: StalenessUnbounded}
}

// fragmented reports whether the topology runs the fragment runtime (as
// opposed to the fused loop). A zero-value Topology (Learners 0) is
// fused: callers opt into the fragment runtime by naming a replica count,
// e.g. Topology{Learners: 1} or ReplicatedTopology(n).
func (t Topology) fragmented() bool {
	return t.Learners >= 1
}

// normalized fills defaults and validates the topology against the
// deployment width.
func (t Topology) normalized(machines int) (Topology, error) {
	if t.Learners < 1 {
		t.Learners = 1
	}
	if t.LearnMachines == nil {
		t.LearnMachines = make([]int, t.Learners)
	}
	if len(t.LearnMachines) != t.Learners {
		return t, fmt.Errorf("core: topology places %d learn fragments but replicates %d",
			len(t.LearnMachines), t.Learners)
	}
	place := func(what string, m int) error {
		if m < 0 || m >= machines {
			return fmt.Errorf("core: topology places the %s fragment on machine %d of %d", what, m, machines)
		}
		return nil
	}
	if err := place("broadcast", t.BroadcastMachine); err != nil {
		return t, err
	}
	for _, m := range t.LearnMachines {
		if err := place("learn", m); err != nil {
			return t, err
		}
	}
	if t.MaxStaleness < 0 {
		t.MaxStaleness = StalenessUnbounded
	}
	return t, nil
}
