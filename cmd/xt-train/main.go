// Command xt-train runs one DRL training deployment: an algorithm from the
// zoo on a named environment, with the deployment shape given by flags or a
// JSON configuration file (the analogue of XingTian's YAML config).
//
// Usage:
//
//	xt-train -alg DQN -env CartPole -explorers 2 -steps 20000
//	xt-train -alg IMPALA -env CartPole -explorers 8 -topology replicated -learners 2
//	xt-train -config deploy.json
//
// Example deploy.json:
//
//	{
//	  "algorithm": "IMPALA", "environment": "BeamRider",
//	  "explorers": 8, "machines": 2, "rollout_len": 500,
//	  "max_steps": 100000, "seed": 7
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/fabric"
	"xingtian/internal/serialize"
)

// fileConfig is the JSON deployment description.
type fileConfig struct {
	Algorithm      string `json:"algorithm"`
	Environment    string `json:"environment"`
	Explorers      int    `json:"explorers"`
	Machines       int    `json:"machines"`
	RolloutLen     int    `json:"rollout_len"`
	MaxSteps       int64  `json:"max_steps"`
	MaxSeconds     int    `json:"max_seconds"`
	Compress       bool   `json:"compress"`
	Seed           int64  `json:"seed"`
	Restarts       int    `json:"restarts"`
	RestartBackoff int    `json:"restart_backoff_ms"`
	StoreBudget    int64  `json:"store_budget"`
	ShedDepth      int    `json:"shed_depth"`
	Credits        int    `json:"credits"`
	Checkpoint     string `json:"checkpoint"`
	CheckpointEvry int64  `json:"checkpoint_every"`
	CheckpointKeep int    `json:"checkpoint_keep"`
	Resume         bool   `json:"resume"`

	WeightDelta      bool    `json:"weight_delta"`
	WeightQuantBits  int     `json:"weight_quant_bits"`
	WeightSkipFactor float64 `json:"weight_skip_factor"`
	WeightTreeFanout int     `json:"weight_tree_fanout"`

	Topology     string `json:"topology"`
	Learners     int    `json:"learners"`
	MaxStaleness int    `json:"max_staleness"`

	// LearnerRestarts < 0 keeps the fail-fast seed semantics; >= 0 arms
	// learn-replica failover with that respawn budget (needs -topology
	// replicated and >= 2 learners). HeartbeatMS tunes the liveness cadence.
	LearnerRestarts int `json:"learner_restarts"`
	HeartbeatMS     int `json:"heartbeat_ms"`

	// Grid runs the machines over a real TCP loopback fabric grid instead
	// of the simulated network. MachineFailover arms §5j whole-machine
	// fault domains on top of it (needs Grid, >= 2 machines, and a
	// replicated topology with >= 2 learners); LeaseMS tunes the membership
	// lease renewal period (0 = transport default, 25ms).
	Grid            bool `json:"grid"`
	MachineFailover bool `json:"machine_failover"`
	LeaseMS         int  `json:"lease_ms"`
}

// topologyFor maps the deployment description onto a core.Topology. The
// empty string and "fused" keep the seed's single-learner loop; "replicated"
// opts into the fragment runtime with fc.Learners learn replicas.
func topologyFor(fc fileConfig) (core.Topology, error) {
	switch fc.Topology {
	case "", "fused":
		if fc.Topology == "" && fc.Learners > 1 {
			return core.Topology{}, fmt.Errorf("-learners %d needs -topology replicated", fc.Learners)
		}
		return core.Topology{}, nil
	case "replicated":
		n := fc.Learners
		if n < 1 {
			n = 1
		}
		return core.Topology{
			Learners:     n,
			MaxStaleness: fc.MaxStaleness,
		}, nil
	default:
		return core.Topology{}, fmt.Errorf("unknown topology %q (want fused or replicated)", fc.Topology)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		algName    = flag.String("alg", "DQN", "DQN | PPO | IMPALA")
		envName    = flag.String("env", "CartPole", "CartPole | BeamRider | Breakout | Qbert | SpaceInvaders")
		explorers  = flag.Int("explorers", 2, "parallel explorers")
		machines   = flag.Int("machines", 1, "simulated machines")
		rolloutLen = flag.Int("rollout", 200, "steps per rollout message")
		steps      = flag.Int64("steps", 20_000, "stop after consuming this many steps")
		seconds    = flag.Int("seconds", 300, "wall-clock limit")
		compress   = flag.Bool("compress", false, "LZ4 compression above 1 MB")
		seed       = flag.Int64("seed", 1, "run seed")
		configPath = flag.String("config", "", "JSON deployment config (overrides flags)")
		metrics    = flag.Duration("metrics", 0, "log a channel-health summary at this interval (0 = off)")
		restarts   = flag.Int("restarts", 0, "restart budget per explorer on agent error (0 = fail fast)")
		restartBk  = flag.Duration("restart-backoff", 100*time.Millisecond, "initial backoff before an explorer restart (doubles per consecutive restart)")
		storeBdgt  = flag.Int64("store-budget", 0, "per-broker object store byte budget (0 = unbounded); under pressure trajectory pushes shed, model updates always get through")
		shedDepth  = flag.Int("shed-depth", 0, "destination queue depth past which the oldest droppable messages shed (0 = unbounded)")
		credits    = flag.Int("credits", 0, "un-acknowledged rollout fragments allowed per explorer (0 = default, <0 = unlimited)")
		ckptPath   = flag.String("ckpt", "", "checkpoint path (enables periodic DNN parameter saves)")
		ckptEvery  = flag.Int64("ckpt-every", 0, "training sessions between checkpoints (0 = default 100)")
		ckptKeep   = flag.Int("ckpt-keep", 0, "retain the last K rotated checkpoints as <ckpt>.N (0 = single overwritten file)")
		resume     = flag.Bool("resume", false, "restore the newest readable checkpoint at -ckpt before training")
		wDelta     = flag.Bool("weight-delta", false, "broadcast sparse weight deltas against each explorer's acked version (dense fallback on staleness or NACK)")
		wQuant     = flag.Int("weight-quant", 8, "delta quantization bits: 8 = int8 steps, 0 = exact float32 (with -weight-delta)")
		wSkip      = flag.Float64("weight-skip", 0, "skip broadcasts whose relative delta norm is below this factor of the running EMA (0 = never skip)")
		wTree      = flag.Int("weight-tree", 0, "relay weight broadcasts wider than this through a depth-2 machine tree (0 = star fan-out)")
		topology   = flag.String("topology", "", `fragment topology: "" or "fused" = seed's single-learner loop, "replicated" = N learn fragments on the dataflow-fragment runtime`)
		learners   = flag.Int("learners", 1, "learn-fragment replicas (with -topology replicated)")
		staleness  = flag.Int("staleness", -1, "max sample→learn staleness in weight versions: 0 = strict assignment order, -1 = unbounded (with -topology replicated)")
		lRestarts  = flag.Int("learner-restarts", -1, "learn-replica respawn budget: -1 = fail fast (seed semantics), >= 0 arms quarantine/respawn failover with that budget (needs -topology replicated and >= 2 learners)")
		heartbeat  = flag.Duration("heartbeat", 0, "learn-replica liveness cadence under -learner-restarts >= 0 (0 = default 25ms; hung-replica deadline is 4 missed beats)")
		gridWire   = flag.Bool("grid", false, "run the machines over a real TCP loopback fabric grid instead of the simulated network")
		mFailover  = flag.Bool("machine-failover", false, "survive whole-machine loss: lease-based membership plus fragment re-placement onto survivors (needs -grid, -machines >= 2, -topology replicated, -learners >= 2)")
		leaseMS    = flag.Int("lease-ms", 0, "membership lease renewal period in ms under -machine-failover (0 = default 25ms; death verdict after 4 missed renewals with a downed link)")
		reportPath = flag.String("report", "", `write a single-line JSON run report (steps, throughput, fragment and machine-failover counters) to this path ("-" = stdout)`)
	)
	flag.Parse()

	fc := fileConfig{
		Algorithm: *algName, Environment: *envName,
		Explorers: *explorers, Machines: *machines, RolloutLen: *rolloutLen,
		MaxSteps: *steps, MaxSeconds: *seconds, Compress: *compress, Seed: *seed,
		Restarts: *restarts, RestartBackoff: int(restartBk.Milliseconds()),
		StoreBudget: *storeBdgt, ShedDepth: *shedDepth, Credits: *credits,
		Checkpoint: *ckptPath, CheckpointEvry: *ckptEvery,
		CheckpointKeep: *ckptKeep, Resume: *resume,
		WeightDelta: *wDelta, WeightQuantBits: *wQuant,
		WeightSkipFactor: *wSkip, WeightTreeFanout: *wTree,
		Topology: *topology, Learners: *learners, MaxStaleness: *staleness,
		LearnerRestarts: *lRestarts, HeartbeatMS: int(heartbeat.Milliseconds()),
		Grid: *gridWire, MachineFailover: *mFailover, LeaseMS: *leaseMS,
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "read config: %v\n", err)
			return 2
		}
		if err := json.Unmarshal(data, &fc); err != nil {
			fmt.Fprintf(os.Stderr, "parse config: %v\n", err)
			return 2
		}
	}

	algF, agF, err := buildFactories(fc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	topo, err := topologyFor(fc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("training %s on %s: %d explorer(s), %d machine(s), budget %d steps\n",
		fc.Algorithm, fc.Environment, fc.Explorers, max(fc.Machines, 1), fc.MaxSteps)
	if fc.Topology == "replicated" {
		fmt.Printf("  topology: replicated, %d learn fragment(s), max staleness %d\n",
			max(fc.Learners, 1), fc.MaxStaleness)
	}
	if fc.LearnerRestarts >= 0 {
		if fc.Topology != "replicated" || fc.Learners < 2 {
			fmt.Fprintln(os.Stderr, "-learner-restarts needs -topology replicated with -learners >= 2 (failover requires a survivor)")
			return 2
		}
		fmt.Printf("  failover: learn-replica respawn budget %d, heartbeat %dms\n",
			fc.LearnerRestarts, fc.HeartbeatMS)
	}
	if fc.LeaseMS != 0 && !fc.MachineFailover {
		fmt.Fprintln(os.Stderr, "-lease-ms tunes the membership plane and needs -machine-failover")
		return 2
	}
	if fc.MachineFailover {
		// Machine failover is a real-wire feature: the membership plane and
		// the Kill fence live on the fabric grid, and re-placement needs
		// both a surviving machine and a surviving learn replica.
		switch {
		case !fc.Grid:
			fmt.Fprintln(os.Stderr, "-machine-failover needs -grid (the membership plane runs on the TCP fabric, not the simulated network)")
			return 2
		case fc.Machines < 2:
			fmt.Fprintln(os.Stderr, "-machine-failover needs -machines >= 2 (re-placement requires a survivor machine)")
			return 2
		case fc.Topology != "replicated" || fc.Learners < 2:
			fmt.Fprintln(os.Stderr, "-machine-failover needs -topology replicated with -learners >= 2 (a dead machine's learn replicas must leave a survivor)")
			return 2
		}
		lease := fc.LeaseMS
		if lease == 0 {
			lease = int(fabric.DefaultLeaseEvery.Milliseconds())
		}
		fmt.Printf("  machine failover: lease %dms, verdict after 4 missed renewals\n", lease)
	}

	cfg := core.Config{
		NumExplorers:        fc.Explorers,
		RolloutLen:          fc.RolloutLen,
		MaxSteps:            fc.MaxSteps,
		MaxDuration:         time.Duration(fc.MaxSeconds) * time.Second,
		Machines:            fc.Machines,
		Compress:            fc.Compress,
		MaxExplorerRestarts: fc.Restarts,
		RestartBackoff:      time.Duration(fc.RestartBackoff) * time.Millisecond,
		StoreBudget:         fc.StoreBudget,
		ShedQueueDepth:      fc.ShedDepth,
		MaxInflight:         fc.Credits,
		CheckpointPath:      fc.Checkpoint,
		CheckpointEvery:     fc.CheckpointEvry,
		CheckpointKeep:      fc.CheckpointKeep,
		Resume:              fc.Resume,
		WeightDelta:         fc.WeightDelta,
		WeightQuantBits:     fc.WeightQuantBits,
		WeightSkipFactor:    fc.WeightSkipFactor,
		WeightTreeFanout:    fc.WeightTreeFanout,
		Topology:            topo,
		LearnerFailover:     fc.LearnerRestarts >= 0,
		MaxLearnerRestarts:  max(fc.LearnerRestarts, 0),
		HeartbeatEvery:      time.Duration(fc.HeartbeatMS) * time.Millisecond,
		MachineFailover:     fc.MachineFailover,
		LeaseEvery:          time.Duration(fc.LeaseMS) * time.Millisecond,
	}
	if fc.Grid {
		opts := fabric.GridOptions{
			StoreBudget:    fc.StoreBudget,
			ShedQueueDepth: fc.ShedDepth,
		}
		if fc.Compress {
			opts.Compressor = serialize.NewCompressor()
		}
		if fc.WeightTreeFanout > 0 {
			opts.RelayFanout = fc.WeightTreeFanout
		}
		g, gerr := fabric.NewGrid(max(fc.Machines, 1), opts)
		if gerr != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", gerr)
			return 2
		}
		cfg.Transport = g
	}
	if *metrics > 0 {
		cfg.MetricsEvery = *metrics
		cfg.MetricsWriter = os.Stdout
	}
	report, err := core.Run(cfg, algF, agF, fc.Seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run: %v\n", err)
		return 1
	}
	fmt.Printf("done in %v\n", report.Duration.Round(time.Millisecond))
	fmt.Printf("  steps consumed:   %d (%.0f steps/s)\n", report.StepsConsumed, report.Throughput)
	fmt.Printf("  train sessions:   %d\n", report.TrainIters)
	if fr := report.Fragments; fr != nil {
		fmt.Printf("  fragments:        %d learner(s), %d aggregation(s), committed version %d\n",
			fr.Learners, fr.Aggregations, fr.CommittedVersion)
		fmt.Printf("  sample dispatch:  %d rollout(s), %d stale drop(s) (max staleness %d)\n",
			fr.Dispatched, fr.StaleDrops, fr.MaxStaleness)
		if fr.Quarantines > 0 || fr.Respawns > 0 || fr.Degraded > 0 {
			fmt.Printf("  failover:         %d quarantine(s), %d re-dispatch(es), %d respawn(s), %d degraded slot(s)\n",
				fr.Quarantines, fr.Redispatches, fr.Respawns, fr.Degraded)
		}
		if fc.MachineFailover {
			fmt.Printf("  machine plane:    %d lease renewal(s), %d machine verdict(s), %d takeover(s)\n",
				fr.LeaseRenewals, fr.MachineVerdicts, fr.Takeovers)
		}
	}
	fmt.Printf("  episodes:         %d (mean return %.2f)\n", report.Episodes, report.MeanReturn)
	fmt.Printf("  learner wait avg: %v\n", report.MeanWait.Round(time.Microsecond))
	fmt.Printf("  transmission avg: %v\n", report.MeanTransmission.Round(time.Microsecond))
	if fc.Restarts > 0 || report.ExplorerRestarts > 0 {
		fmt.Printf("  explorer restarts: %d (budget exhausted on %d)\n",
			report.ExplorerRestarts, report.RestartBudgetExhausted)
		if report.RestartLastError != "" {
			fmt.Printf("  last handled error: %s\n", report.RestartLastError)
		}
	}
	fmt.Printf("channel health (final):\n")
	for _, bs := range report.Channel.Brokers {
		fmt.Printf("  %s\n", bs.Summary())
	}
	for _, ws := range report.Channel.Wire {
		fmt.Printf("  %s\n", ws.String())
	}
	if *reportPath != "" {
		if err := writeRunReport(*reportPath, fc, report); err != nil {
			fmt.Fprintf(os.Stderr, "write report: %v\n", err)
			return 1
		}
	}
	if leaked := report.Channel.TotalLeaked(); leaked > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: %d object(s) leaked in the object store at shutdown\n", leaked)
		return 1
	}
	return 0
}

// runReport is the single-line JSON artifact -report emits: run shape, the
// headline throughput numbers, and — when the fragment runtime ran — the
// full fragment report, whose lease/takeover counters the machine-failover
// chaos legs grep for.
type runReport struct {
	Algorithm     string               `json:"algorithm"`
	Environment   string               `json:"environment"`
	Machines      int                  `json:"machines"`
	Grid          bool                 `json:"grid"`
	StepsConsumed int64                `json:"steps_consumed"`
	TrainIters    int64                `json:"train_iters"`
	Throughput    float64              `json:"throughput_steps_per_s"`
	DurationMS    int64                `json:"duration_ms"`
	Episodes      int64                `json:"episodes"`
	MeanReturn    float64              `json:"mean_return"`
	Leaked        int64                `json:"leaked"`
	Fragments     *core.FragmentReport `json:"fragments,omitempty"`
}

func writeRunReport(path string, fc fileConfig, report *core.Report) error {
	out := runReport{
		Algorithm:     fc.Algorithm,
		Environment:   fc.Environment,
		Machines:      max(fc.Machines, 1),
		Grid:          fc.Grid,
		StepsConsumed: report.StepsConsumed,
		TrainIters:    report.TrainIters,
		Throughput:    report.Throughput,
		DurationMS:    report.Duration.Milliseconds(),
		Episodes:      report.Episodes,
		MeanReturn:    report.MeanReturn,
		Leaked:        report.Channel.TotalLeaked(),
		Fragments:     report.Fragments,
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildFactories wires the zoo algorithm and agents for the config.
func buildFactories(fc fileConfig) (core.AlgorithmFactory, core.AgentFactory, error) {
	probe, err := env.Make(fc.Environment, 0)
	if err != nil {
		return nil, nil, err
	}
	spec := algorithm.SpecFor(probe)

	mkEnv := func(seed int64) (env.Env, error) { return env.Make(fc.Environment, seed) }
	switch fc.Algorithm {
	case "DQN":
		cfg := algorithm.DefaultDQNConfig()
		return func(seed int64) (core.Algorithm, error) {
				return algorithm.NewDQN(spec, cfg, seed), nil
			}, func(id int32, seed int64) (core.Agent, error) {
				e, err := mkEnv(seed)
				if err != nil {
					return nil, err
				}
				return algorithm.NewDQNAgent(spec, algorithm.NewEnvRunner(e, spec), seed), nil
			}, nil
	case "PPO":
		cfg := algorithm.DefaultPPOConfig(fc.Explorers)
		return func(seed int64) (core.Algorithm, error) {
				return algorithm.NewPPO(spec, cfg, seed), nil
			}, func(id int32, seed int64) (core.Agent, error) {
				e, err := mkEnv(seed)
				if err != nil {
					return nil, err
				}
				return algorithm.NewPPOAgent(spec, algorithm.NewEnvRunner(e, spec), seed), nil
			}, nil
	case "IMPALA":
		cfg := algorithm.DefaultIMPALAConfig()
		return func(seed int64) (core.Algorithm, error) {
				return algorithm.NewIMPALA(spec, cfg, seed), nil
			}, func(id int32, seed int64) (core.Agent, error) {
				e, err := mkEnv(seed)
				if err != nil {
					return nil, err
				}
				return algorithm.NewIMPALAAgent(spec, algorithm.NewEnvRunner(e, spec), seed), nil
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q (want DQN, PPO, or IMPALA)", fc.Algorithm)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
