package xingtian_test

import (
	"testing"
	"time"

	"xingtian"
)

// TestPublicAPIQuickstart exercises the documented public-API flow
// end to end: DQN on CartPole through the full framework.
func TestPublicAPIQuickstart(t *testing.T) {
	e := xingtian.NewCartPole(0)
	spec := xingtian.SpecFor(e)
	spec.Hidden = []int{16}

	cfg := xingtian.DefaultDQNConfig()
	cfg.TrainStart = 100
	cfg.TrainEvery = 4
	cfg.BatchSize = 16
	algF := func(seed int64) (xingtian.Algorithm, error) {
		return xingtian.NewDQN(spec, cfg, seed), nil
	}
	agF := func(id int32, seed int64) (xingtian.Agent, error) {
		runner := xingtian.NewEnvRunner(xingtian.NewCartPole(seed), spec)
		return xingtian.NewDQNAgent(spec, runner, seed), nil
	}
	report, err := xingtian.Run(xingtian.Config{
		NumExplorers: 2,
		RolloutLen:   50,
		MaxSteps:     800,
		MaxDuration:  30 * time.Second,
	}, algF, agF, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.StepsConsumed < 800 {
		t.Fatalf("StepsConsumed = %d", report.StepsConsumed)
	}
	if report.Episodes == 0 {
		t.Fatal("no episodes")
	}
}

func TestPublicAPIEnvironments(t *testing.T) {
	for _, name := range []string{"CartPole", "BeamRider", "Breakout", "Qbert", "SpaceInvaders"} {
		e, err := xingtian.MakeEnv(name, 1)
		if err != nil {
			t.Fatalf("MakeEnv(%q): %v", name, err)
		}
		obs, err := e.Reset()
		if err != nil {
			t.Fatalf("%s Reset: %v", name, err)
		}
		if obs.SizeBytes() == 0 {
			t.Fatalf("%s empty observation", name)
		}
	}
	if _, err := xingtian.MakeEnv("Pong", 1); err == nil {
		t.Fatal("MakeEnv(unknown) did not error")
	}
}

func TestPublicAPIPPOAndIMPALAConstructors(t *testing.T) {
	e := xingtian.NewCartPole(0)
	spec := xingtian.SpecFor(e)
	ppo := xingtian.NewPPO(spec, xingtian.DefaultPPOConfig(2), 1)
	if ppo.Name() != "PPO" {
		t.Fatalf("PPO Name = %q", ppo.Name())
	}
	impala := xingtian.NewIMPALA(spec, xingtian.DefaultIMPALAConfig(), 1)
	if impala.Name() != "IMPALA" {
		t.Fatalf("IMPALA Name = %q", impala.Name())
	}
	if w := impala.Weights(); len(w.Data) == 0 {
		t.Fatal("IMPALA Weights empty")
	}
}

// TestPublicAPIDDPGPendulum exercises the continuous-control path through
// the full framework.
func TestPublicAPIDDPGPendulum(t *testing.T) {
	e := xingtian.NewPendulum(0)
	spec := xingtian.ContinuousSpecFor(e)
	spec.Hidden = []int{16}
	cfg := xingtian.DefaultDDPGConfig()
	cfg.TrainStart = 100
	cfg.BatchSize = 16
	// Each train consumes BatchSize sampled transitions; requiring as many
	// fresh inserts per train makes 800 consumed imply ≥ 800 generated, i.e.
	// ≥ 4 finished 200-step episodes, however far the learner runs ahead.
	cfg.TrainEvery = cfg.BatchSize

	algF := func(seed int64) (xingtian.Algorithm, error) {
		return xingtian.NewDDPG(spec, cfg, seed), nil
	}
	agF := func(id int32, seed int64) (xingtian.Agent, error) {
		runner := xingtian.NewContinuousEnvRunner(xingtian.NewPendulum(seed))
		return xingtian.NewDDPGAgent(spec, runner, seed), nil
	}
	report, err := xingtian.Run(xingtian.Config{
		NumExplorers: 1,
		RolloutLen:   50,
		MaxSteps:     800,
		MaxDuration:  30 * time.Second,
	}, algF, agF, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.StepsConsumed < 800 {
		t.Fatalf("StepsConsumed = %d", report.StepsConsumed)
	}
	if report.Episodes == 0 {
		t.Fatal("no episodes completed")
	}
}
