package core_test

import (
	"strings"
	"testing"
	"time"

	"xingtian/internal/core"
)

// stubTransport stands in for a caller-supplied transport (a fabric.Grid)
// where only its presence matters; Stop records that the session handed it
// back.
type stubTransport struct {
	core.Transport
	stopped bool
}

func (s *stubTransport) Stop() { s.stopped = true }

// TestConfigValidate holds one case per cross-field rule, plus the
// deployments the repository runs, which must pass.
func TestConfigValidate(t *testing.T) {
	grid := func() core.Transport { return &stubTransport{} }
	// The benchmark's train-impala-grid deployment.
	benchmark := core.Config{
		NumExplorers: 4, RolloutLen: 40, Machines: 4, Transport: grid(),
		Topology: core.Topology{Learners: 2, SampleMachine: 0, BroadcastMachine: 3,
			LearnMachines: []int{1, 2}, MaxStaleness: core.StalenessUnbounded},
	}
	// The fragment-topology suite's machine-kill legs.
	machineKill := core.Config{
		NumExplorers: 4, RolloutLen: 40, MaxSteps: 8000, MaxDuration: 90 * time.Second,
		Machines: 4, Transport: grid(),
		Topology: core.Topology{Learners: 2, BroadcastMachine: 3,
			LearnMachines: []int{2, 3}, MaxStaleness: core.StalenessUnbounded},
		MaxLearnerRestarts: 3, HeartbeatEvery: 500 * time.Millisecond,
		RestartBackoff: 2 * time.Millisecond, MachineFailover: true, LeaseEvery: 10 * time.Millisecond,
	}
	cases := []struct {
		name    string
		cfg     core.Config
		wantErr string // "" = valid
	}{
		{"zero value", core.Config{}, ""},
		{"fused default", core.Config{NumExplorers: 2, Machines: 1, RolloutLen: 200, MaxSteps: 20_000,
			MaxDuration: 300 * time.Second, RestartBackoff: 100 * time.Millisecond}, ""},
		{"benchmark train-impala-grid", benchmark, ""},
		{"machine-kill leg", machineKill, ""},
		{"learner failover over 2 replicas", core.Config{Topology: core.ReplicatedTopology(2),
			LearnerFailover: true, MaxLearnerRestarts: 2}, ""},

		{"learner failover fused", core.Config{LearnerFailover: true}, "LearnerFailover"},
		{"learner failover one replica", core.Config{Topology: core.ReplicatedTopology(1),
			LearnerFailover: true}, "LearnerFailover"},
		{"lease without machine failover", core.Config{Machines: 4, Transport: grid(),
			Topology: core.ReplicatedTopology(2), LeaseEvery: 10 * time.Millisecond}, "LeaseEvery"},
		{"machine failover without transport", core.Config{Machines: 4,
			Topology: core.ReplicatedTopology(2), MachineFailover: true}, "Transport"},
		{"machine failover one machine", core.Config{Machines: 1, Transport: grid(),
			Topology: core.ReplicatedTopology(2), MachineFailover: true}, "machines"},
		{"machine failover one replica", core.Config{Machines: 4, Transport: grid(),
			Topology: core.ReplicatedTopology(1), MachineFailover: true}, "replicas"},
		{"machine failover fused", core.Config{Machines: 4, Transport: grid(),
			MachineFailover: true}, "replicas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Validate = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Validate = %v, want an error naming %q", err, tc.wantErr)
			case tc.wantErr == "":
				return
			}
			// NewSession rejects the same config before it builds anything,
			// and stops a caller-supplied transport it now owns.
			build := func(int64) (core.Algorithm, error) {
				t.Fatal("NewSession built an algorithm for an invalid config")
				return nil, nil
			}
			if _, err := core.NewSession(tc.cfg, build, nil, 1); err == nil {
				t.Fatal("NewSession accepted an invalid config")
			}
			if st, ok := tc.cfg.Transport.(*stubTransport); ok && !st.stopped {
				t.Error("NewSession did not stop the transport of a rejected config")
			}
		})
	}
}
