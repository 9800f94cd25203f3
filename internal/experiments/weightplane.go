package experiments

import (
	"fmt"
	"io"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/stats"
)

// RunWeightPlane measures the weight plane every session runs: int8 deltas
// of one canonical chain, dense only as the resync, broadcast as a star (one
// frame per remote machine), on a DQN/CartPole deployment. It reports the learner machine's
// cross-machine egress — dominated by weight broadcasts once rollouts flow
// inbound — beside the computed egress of a dense star: every planned
// destination off the learner's machine sent the full float32 vector.
func RunWeightPlane(s Settings, w io.Writer) error {
	s = s.normalized()

	steps := int64(6000)
	explorers := 4
	if s.Quick {
		steps, explorers = 2000, 2
	}
	if s.Explorers > 0 {
		explorers = s.Explorers
	}
	const machines = 3

	algF, agF, err := factoriesLight("DQN", "CartPole", explorers)
	if err != nil {
		return err
	}
	sess, err := core.NewSession(core.Config{
		NumExplorers: explorers,
		RolloutLen:   50,
		MaxSteps:     steps,
		MaxDuration:  2 * time.Minute,
		Machines:     machines,
		Net:          s.Net(),
	}, algF, agF, 7)
	if err != nil {
		return err
	}
	sess.Start()
	sess.Wait()
	rep := sess.Stop()
	if err := sess.Err(); err != nil {
		return fmt.Errorf("weightplane: %w", err)
	}

	var egress int64
	for _, b := range rep.Channel.Brokers {
		if b.MachineID == 0 {
			egress = b.BytesForwarded
		}
	}
	// Explorer i runs on machine i mod machines, so this share of every
	// broadcast's destinations is off the learner's machine.
	remote := explorers - (explorers+machines-1)/machines
	ps := sess.Learner().PlaneStats()
	planned := ps.Dense + ps.Delta + ps.Empty
	params := len(sess.Learner().Algorithm().Weights().Data)
	denseStar := float64(planned) * float64(remote) / float64(explorers) * 4 * float64(params)

	t := &Table{
		Title:   "Weight plane: int8 deltas over a star",
		Columns: []string{"steps", "mean return", "learner egress", "dense star (computed)", "planner decisions"},
	}
	t.Rows = append(t.Rows, Row{Label: "delta star", Values: []string{
		fmt.Sprintf("%d", rep.StepsConsumed),
		fmt.Sprintf("%.1f", rep.MeanReturn),
		stats.FormatBytes(float64(egress)),
		stats.FormatBytes(denseStar),
		fmt.Sprintf("dense %d / delta %d / skipped %d / resyncs %d", ps.Dense, ps.Delta, ps.Empty, ps.Resyncs),
	}})
	if egress > 0 {
		t.Rows = append(t.Rows, Row{Label: "egress ratio", Values: []string{"", "", "", fmt.Sprintf("%.1fx", denseStar/float64(egress)), ""}})
	}
	t.Notes = append(t.Notes,
		"learner egress counts machine-0 cross-machine body bytes: weight broadcasts plus shutdown control",
		fmt.Sprintf("dense star is computed, not run: %d planned destinations × %d/%d off machine 0 × 4 B × %d params", planned, remote, explorers, params),
	)
	t.Fprint(w)
	return nil
}
