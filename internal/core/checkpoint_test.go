package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xingtian/internal/checkpoint"
	"xingtian/internal/core"
)

func TestLearnerCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "learner.ckpt")
	algF, agF := quickDQNFactories(t)
	rep, err := core.Run(core.Config{
		NumExplorers:    1,
		RolloutLen:      50,
		MaxSteps:        1000,
		MaxDuration:     30 * time.Second,
		CheckpointPath:  path,
		CheckpointEvery: 10,
	}, algF, agF, 9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TrainIters < 10 {
		t.Fatalf("TrainIters = %d, want >= 10 for a checkpoint", rep.TrainIters)
	}
	states, err := checkpoint.LoadFragments(path)
	if err != nil {
		t.Fatalf("Load checkpoint: %v", err)
	}
	if len(states) != 1 || states[0].Name != core.LearnerName {
		t.Fatalf("checkpoint holds %d states, want one named %q", len(states), core.LearnerName)
	}
	st := states[0].State
	if len(st.Weights) == 0 {
		t.Fatal("checkpoint has no weights")
	}

	// Restore into a fresh learner: the weights must fit the architecture.
	alg, err := algF(99)
	if err != nil {
		t.Fatal(err)
	}
	type loader interface{ LoadWeights([]float32) error }
	ld, ok := alg.(loader)
	if !ok {
		t.Fatal("DQN does not implement LoadWeights")
	}
	if err := ld.LoadWeights(st.Weights); err != nil {
		t.Fatalf("restore after failure: %v", err)
	}
}

// TestSessionResumeRestoresVersion runs a checkpointing session with
// rotation, then resumes a fresh session from the newest member and proves
// the restored learner continues the weights version sequence instead of
// restarting from zero.
func TestSessionResumeRestoresVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	algF, agF := quickDQNFactories(t)
	cfg := core.Config{
		NumExplorers:    1,
		RolloutLen:      50,
		MaxSteps:        1000,
		MaxDuration:     30 * time.Second,
		CheckpointPath:  path,
		CheckpointEvery: 10,
		CheckpointKeep:  2,
	}
	if _, err := core.Run(cfg, algF, agF, 9); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	states, err := checkpoint.LoadLatestFragments(path)
	if err != nil {
		t.Fatalf("LoadLatest after rotating run: %v", err)
	}
	st := states[0].State
	if st.Version <= 0 {
		t.Fatalf("checkpoint version = %d, want > 0", st.Version)
	}

	cfg.Resume = true
	s, err := core.NewSession(cfg, algF, agF, 10)
	if err != nil {
		t.Fatalf("NewSession resume: %v", err)
	}
	w := s.Learner().Algorithm().Weights()
	s.Stop()
	if w.Version != st.Version {
		t.Fatalf("resumed weights version = %d, want checkpoint's %d", w.Version, st.Version)
	}
	if len(w.Data) != len(st.Weights) {
		t.Fatalf("resumed weights len = %d, want %d", len(w.Data), len(st.Weights))
	}
}

// TestSessionResumeFreshStart proves Resume with no checkpoint on disk is a
// clean fresh start, not an error.
func TestSessionResumeFreshStart(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	s, err := core.NewSession(core.Config{
		NumExplorers:   1,
		RolloutLen:     50,
		MaxSteps:       100,
		CheckpointPath: filepath.Join(t.TempDir(), "model.ckpt"),
		Resume:         true,
	}, algF, agF, 3)
	if err != nil {
		t.Fatalf("NewSession with nothing to resume: %v", err)
	}
	s.Stop()
}

// TestSessionResumeRefusesCorruptCheckpoint: Resume over a garbage file at
// the checkpoint path fails NewSession with ErrCorrupt instead of silently
// starting fresh.
func TestSessionResumeRefusesCorruptCheckpoint(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	path := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{NumExplorers: 1, RolloutLen: 50, MaxSteps: 100, CheckpointPath: path, Resume: true}
	s, err := core.NewSession(cfg, algF, agF, 3)
	if err == nil {
		s.Stop()
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("NewSession resuming a garbage file = %v, want ErrCorrupt", err)
	}
}

// TestSessionResumeRefusesForeignCheckpoint: a fused Resume from a readable
// fragment set that holds no learner state fails NewSession instead of
// silently starting fresh.
func TestSessionResumeRefusesForeignCheckpoint(t *testing.T) {
	algF, agF := quickDQNFactories(t)
	path := filepath.Join(t.TempDir(), "fragments.ckpt")
	set := []checkpoint.FragmentState{
		{Name: core.BroadcastName, State: checkpoint.State{Version: 7}},
		{Name: core.LearnName(0), State: checkpoint.State{Version: 7}},
	}
	if err := checkpoint.SaveFragments(path, set); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{NumExplorers: 1, RolloutLen: 50, MaxSteps: 100, CheckpointPath: path, Resume: true}
	s, err := core.NewSession(cfg, algF, agF, 3)
	if err == nil {
		s.Stop()
		t.Fatal("a fused NewSession resumed from a fragment set without the learner's state")
	}
	if !strings.Contains(err.Error(), core.LearnerName) {
		t.Fatalf("NewSession error %q does not name the state it looked for", err)
	}
}
