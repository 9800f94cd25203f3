package main

import (
	"fmt"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
)

// zoo maps each algorithm name to its learner and agent constructors.
var zoo = map[string]struct {
	learner func(s algorithm.ModelSpec, explorers int, seed int64) core.Algorithm
	agent   func(s algorithm.ModelSpec, r *algorithm.EnvRunner, seed int64) core.Agent
}{
	"DQN": {
		func(s algorithm.ModelSpec, _ int, seed int64) core.Algorithm {
			return algorithm.NewDQN(s, algorithm.DefaultDQNConfig(), seed)
		},
		func(s algorithm.ModelSpec, r *algorithm.EnvRunner, seed int64) core.Agent {
			return algorithm.NewDQNAgent(s, r, seed)
		},
	},
	"PPO": {
		func(s algorithm.ModelSpec, n int, seed int64) core.Algorithm {
			return algorithm.NewPPO(s, algorithm.DefaultPPOConfig(n), seed)
		},
		func(s algorithm.ModelSpec, r *algorithm.EnvRunner, seed int64) core.Agent {
			return algorithm.NewPPOAgent(s, r, seed)
		},
	},
	"IMPALA": {
		func(s algorithm.ModelSpec, _ int, seed int64) core.Algorithm {
			return algorithm.NewIMPALA(s, algorithm.DefaultIMPALAConfig(), seed)
		},
		func(s algorithm.ModelSpec, r *algorithm.EnvRunner, seed int64) core.Agent {
			return algorithm.NewIMPALAAgent(s, r, seed)
		},
	},
}

// buildFactories wires the zoo algorithm and its agents on environment
// envName.
func buildFactories(alg, envName string, explorers int) (core.AlgorithmFactory, core.AgentFactory, error) {
	probe, err := env.Make(envName, 0)
	if err != nil {
		return nil, nil, err
	}
	spec := algorithm.SpecFor(probe)
	z, ok := zoo[alg]
	if !ok {
		return nil, nil, fmt.Errorf("unknown algorithm %q (want DQN, PPO, or IMPALA)", alg)
	}
	return func(seed int64) (core.Algorithm, error) {
			return z.learner(spec, explorers, seed), nil
		}, func(id int32, seed int64) (core.Agent, error) {
			e, err := env.Make(envName, seed)
			if err != nil {
				return nil, err
			}
			return z.agent(spec, algorithm.NewEnvRunner(e, spec), seed), nil
		}, nil
}
