package experiments

import (
	"fmt"
	"io"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/baselines/launchpadsim"
	"xingtian/internal/baselines/rllibsim"
	"xingtian/internal/core"
	"xingtian/internal/dummy"
	"xingtian/internal/env"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// RunTable1 regenerates Table 1: per algorithm, the size of the rollouts
// consumed by one training iteration, the time to transmit them under the
// RLLib and Launchpad/Reverb communication models, and the (real) training
// time of that iteration.
func RunTable1(s Settings, w io.Writer) error {
	s = s.normalized()

	type spec struct {
		alg       string
		fragments int // messages per iteration (PPO: one per explorer)
		steps     int // steps per message
	}
	specs := []spec{
		{alg: "PPO", fragments: 10, steps: 500},
		{alg: "DQN", fragments: 1, steps: 32},
		{alg: "IMPALA", fragments: 1, steps: 500},
	}
	if s.Quick {
		specs = []spec{
			{alg: "PPO", fragments: 2, steps: 40},
			{alg: "DQN", fragments: 1, steps: 16},
			{alg: "IMPALA", fragments: 1, steps: 40},
		}
	}

	table := &Table{
		Title:   "Table 1: Time to Transmit Rollouts and to Train",
		Columns: []string{"rollout KB", "RLLib trans (ms)", "Launchpad trans (ms)", "train (ms)"},
		Notes: []string{
			fmt.Sprintf("time scale %.0fx vs the paper's testbed; multiply times by the scale for paper-equivalents", s.Scale),
			"payloads are real serialized arcade-frame rollouts (BeamRider)",
		},
	}

	for _, sp := range specs {
		batches, sizeKB, err := makeAtariBatches(sp.fragments, sp.steps)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", sp.alg, err)
		}

		// Transmission time in each baseline, measured with the dummy
		// workload at the same message size and count.
		perMsg := int(sizeKB * 1024 / float64(sp.fragments))
		dcfg := dummy.Config{
			Explorers:    sp.fragments,
			MessageBytes: perMsg,
			Rounds:       1,
			Net:          s.Net(),
			Compress:     true,
			PlaneNsPerKB: s.PlaneNsPerKB,
		}
		rl, err := rllibsim.RunDummy(dcfg)
		if err != nil {
			return fmt.Errorf("table1 %s rllib: %w", sp.alg, err)
		}
		lp, err := launchpadsim.RunDummy(dcfg)
		if err != nil {
			return fmt.Errorf("table1 %s launchpad: %w", sp.alg, err)
		}

		trainTime, err := measureTrainTime(sp.alg, sp.fragments, batches)
		if err != nil {
			return fmt.Errorf("table1 %s train: %w", sp.alg, err)
		}

		table.Rows = append(table.Rows, Row{
			Label: sp.alg,
			Values: []string{
				fmt.Sprintf("%.2f", sizeKB),
				fmt.Sprintf("%.2f", float64(rl.Duration.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(lp.Duration.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(trainTime.Microseconds())/1000),
			},
		})
	}
	table.Fprint(w)
	return nil
}

// makeAtariBatches collects fragments×steps of random-policy BeamRider
// experience and returns the batches plus their total serialized size, at
// the logical length (every frame stack whole) that the paper's rollouts have.
func makeAtariBatches(fragments, steps int) ([]*rollout.Batch, float64, error) {
	spec, err := expSpec("BeamRider")
	if err != nil {
		return nil, 0, err
	}
	var batches []*rollout.Batch
	var totalBytes int
	for f := 0; f < fragments; f++ {
		e, err := env.Make("BeamRider", int64(f)+1)
		if err != nil {
			return nil, 0, err
		}
		runner := algorithm.NewEnvRunner(e, spec)
		agent := algorithm.NewIMPALAAgent(spec, runner, int64(f)+100)
		b, err := agent.Rollout(steps)
		if err != nil {
			return nil, 0, err
		}
		b.ExplorerID = int32(f)
		raw, err := serialize.Marshal(b)
		if err != nil {
			return nil, 0, err
		}
		totalBytes += serialize.LogicalLen(raw)
		batches = append(batches, b)
	}
	return batches, float64(totalBytes) / 1024, nil
}

// measureTrainTime runs one real training iteration for the algorithm on
// the given batches and returns its wall time.
func measureTrainTime(algName string, explorers int, batches []*rollout.Batch) (time.Duration, error) {
	algF, _, err := factories(algName, "BeamRider", explorers)
	if err != nil {
		return 0, err
	}
	algAny, err := algF(1)
	if err != nil {
		return 0, err
	}

	switch alg := algAny.(type) {
	case *algorithm.DQN:
		// Fill replay so a session can run, then time one 32-step session.
		for _, b := range batches {
			alg.PrepareData(b)
		}
		ts := alg.FeaturizeBatch(batches[0])
		for len(ts) < alg.Config().BatchSize {
			ts = append(ts, ts...)
		}
		start := time.Now()
		if _, err := alg.TrainOnTransitions(ts[:alg.Config().BatchSize]); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	default:
		var c core.Algorithm = algAny
		for _, b := range batches {
			c.PrepareData(b)
		}
		start := time.Now()
		if _, ok, err := c.TryTrain(); err != nil || !ok {
			return 0, fmt.Errorf("train did not run (ok=%v): %w", ok, err)
		}
		return time.Since(start), nil
	}
}
