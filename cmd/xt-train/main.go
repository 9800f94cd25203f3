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
//
// Every core.Config knob is declared once, by the flag, json and help tags
// on its field; xt-train derives its flags and its JSON keys from those
// tags. The options struct below declares the few that are not one Config
// field. README.md's flag table is generated from the same tags.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xingtian/internal/core"
	"xingtian/internal/fabric"
	"xingtian/internal/serialize"
)

// options are the knobs that are not one core.Config field: what to train
// and report, and the flags that set several Config fields at once
// (-topology and -learners set Topology.Learners, -learner-restarts sets
// LearnerFailover and MaxLearnerRestarts, -grid sets Transport).
type options struct {
	Alg             string        `flag:"alg" json:"algorithm" help:"DQN | PPO | IMPALA"`
	Env             string        `flag:"env" json:"environment" help:"CartPole | BeamRider | Breakout | Qbert | SpaceInvaders"`
	Seed            int64         `flag:"seed" json:"seed" help:"run seed"`
	Config          string        `flag:"config" help:"JSON deployment config (overrides flags)"`
	Metrics         time.Duration `flag:"metrics" help:"log a channel-health summary at this interval (0 = off)"`
	Report          string        `flag:"report" help:"write a single-line JSON run report (steps, throughput, fragment and machine-failover counters) to this path (\"-\" = stdout)"`
	Topology        string        `flag:"topology" json:"topology" help:"fragment topology: \"\" or \"fused\" = seed's single-learner loop, \"replicated\" = N learn fragments on the dataflow-fragment runtime"`
	Learners        int           `flag:"learners" json:"learners" help:"learn-fragment replicas (with -topology replicated)"`
	LearnerRestarts int           `flag:"learner-restarts" json:"learner_restarts" help:"learn-replica respawn budget: -1 = fail fast (seed semantics), >= 0 arms quarantine/respawn failover with that budget (needs -topology replicated and >= 2 learners)"`
	Grid            bool          `flag:"grid" json:"grid" help:"run the machines over a real TCP loopback fabric grid instead of the simulated network"`
}

// defaults returns every flag's default value.
func defaults() (options, core.Config) {
	return options{Alg: "DQN", Env: "CartPole", Seed: 1, Learners: 1, LearnerRestarts: -1}, core.Config{
		NumExplorers: 2, Machines: 1, RolloutLen: 200, MaxSteps: 20_000,
		MaxDuration: 300 * time.Second, RestartBackoff: 100 * time.Millisecond,
		Topology: core.Topology{MaxStaleness: core.StalenessUnbounded},
	}
}

// parse builds the deployment from args: the flags, then the -config file's
// keys on top, then the options that set several Config fields.
func parse(args []string, stderr io.Writer) (options, core.Config, error) {
	opts, cfg := defaults()
	fs := flag.NewFlagSet("xt-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ks, settle := bind(fs, &opts, &cfg)
	if err := fs.Parse(args); err != nil {
		return opts, cfg, err
	}
	settle()
	if opts.Config != "" {
		data, err := os.ReadFile(opts.Config)
		if err != nil {
			return opts, cfg, fmt.Errorf("read config: %w", err)
		}
		if err := overlay(data, ks); err != nil {
			return opts, cfg, fmt.Errorf("parse config: %w", err)
		}
	}
	switch opts.Topology {
	case "", "fused":
		if opts.Topology == "" && opts.Learners > 1 {
			return opts, cfg, fmt.Errorf("-learners %d needs -topology replicated", opts.Learners)
		}
		cfg.Topology = core.Topology{}
	case "replicated":
		cfg.Topology.Learners = max(opts.Learners, 1)
	default:
		return opts, cfg, fmt.Errorf("unknown topology %q (want fused or replicated)", opts.Topology)
	}
	cfg.LearnerFailover = opts.LearnerRestarts >= 0
	cfg.MaxLearnerRestarts = max(opts.LearnerRestarts, 0)
	return opts, cfg, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is xt-train on its own arguments and output streams. It returns the
// exit code: 0 on a clean run, 1 when the run fails or leaks store objects,
// 2 on a usage error or a configuration Config.Validate rejects.
func run(args []string, stdout, stderr io.Writer) int {
	opts, cfg, err := parse(args, stderr)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	algF, agF, err := buildFactories(opts.Alg, opts.Env, cfg.NumExplorers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if opts.Grid {
		gopts := fabric.GridOptions{StoreBudget: cfg.StoreBudget, ShedQueueDepth: cfg.ShedQueueDepth}
		if cfg.Compress {
			gopts.Compressor = serialize.NewCompressor()
		}
		if cfg.Transport, err = fabric.NewGrid(max(cfg.Machines, 1), gopts); err != nil {
			fmt.Fprintf(stderr, "grid: %v\n", err)
			return 2
		}
	}
	if err := cfg.Validate(); err != nil {
		if cfg.Transport != nil {
			cfg.Transport.Stop()
		}
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg.MetricsEvery, cfg.MetricsWriter = opts.Metrics, stdout

	fmt.Fprintf(stdout, "training %s on %s: %d explorer(s), %d machine(s), budget %d steps\n",
		opts.Alg, opts.Env, cfg.NumExplorers, max(cfg.Machines, 1), cfg.MaxSteps)
	if opts.Topology == "replicated" {
		fmt.Fprintf(stdout, "  topology: replicated, %d learn fragment(s), max staleness %d\n",
			cfg.Topology.Learners, cfg.Topology.MaxStaleness)
	}
	if cfg.LearnerFailover {
		fmt.Fprintf(stdout, "  failover: learn-replica respawn budget %d, heartbeat %v\n",
			cfg.MaxLearnerRestarts, cfg.HeartbeatEvery)
	}
	if cfg.MachineFailover {
		fmt.Fprintf(stdout, "  machine failover: lease %v, verdict after 4 missed renewals\n",
			cmp.Or(cfg.LeaseEvery, fabric.DefaultLeaseEvery))
	}

	report, err := core.Run(cfg, algF, agF, opts.Seed)
	if err != nil {
		fmt.Fprintf(stderr, "run: %v\n", err)
		return 1
	}
	printReport(stdout, cfg, report)
	if opts.Report != "" {
		if err := writeRunReport(stdout, opts, cfg, report); err != nil {
			fmt.Fprintf(stderr, "write report: %v\n", err)
			return 1
		}
	}
	if leaked := report.Channel.TotalLeaked(); leaked > 0 {
		fmt.Fprintf(stderr, "WARNING: %d object(s) leaked in the object store at shutdown\n", leaked)
		return 1
	}
	return 0
}

// printReport writes the human-readable run summary.
func printReport(w io.Writer, cfg core.Config, report *core.Report) {
	fmt.Fprintf(w, "done in %v\n", report.Duration.Round(time.Millisecond))
	fmt.Fprintf(w, "  steps consumed:   %d (%.0f steps/s)\n", report.StepsConsumed, report.Throughput)
	fmt.Fprintf(w, "  train sessions:   %d\n", report.TrainIters)
	if fr := report.Fragments; fr != nil {
		fmt.Fprintf(w, "  fragments:        %d learner(s), %d aggregation(s), committed version %d\n",
			fr.Learners, fr.Aggregations, fr.CommittedVersion)
		fmt.Fprintf(w, "  dispatch:         %d rollout(s), %d stale drop(s) (max staleness %d)\n",
			fr.Dispatched, fr.StaleDrops, fr.MaxStaleness)
		if fr.Quarantines > 0 || fr.Respawns > 0 || fr.Degraded > 0 {
			fmt.Fprintf(w, "  failover:         %d quarantine(s), %d replay(s), %d respawn(s), %d degraded slot(s)\n",
				fr.Quarantines, fr.Redispatches, fr.Respawns, fr.Degraded)
		}
		if cfg.MachineFailover {
			fmt.Fprintf(w, "  machine plane:    %d lease renewal(s), %d machine verdict(s), %d takeover(s)\n",
				fr.LeaseRenewals, fr.MachineVerdicts, fr.Takeovers)
		}
	}
	fmt.Fprintf(w, "  episodes:         %d (mean return %.2f)\n", report.Episodes, report.MeanReturn)
	fmt.Fprintf(w, "  learner wait avg: %v\n", report.MeanWait.Round(time.Microsecond))
	fmt.Fprintf(w, "  transmission avg: %v\n", report.MeanTransmission.Round(time.Microsecond))
	if cfg.MaxExplorerRestarts > 0 || report.ExplorerRestarts > 0 {
		fmt.Fprintf(w, "  explorer restarts: %d (budget exhausted on %d)\n",
			report.ExplorerRestarts, report.RestartBudgetExhausted)
		if report.RestartLastError != "" {
			fmt.Fprintf(w, "  last handled error: %s\n", report.RestartLastError)
		}
	}
	fmt.Fprintf(w, "channel health (final):\n")
	for _, bs := range report.Channel.Brokers {
		fmt.Fprintf(w, "  %s\n", bs.Summary())
	}
	for _, ws := range report.Channel.Wire {
		fmt.Fprintf(w, "  %s\n", ws.String())
	}
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

// writeRunReport writes the -report line to opts.Report ("-" = stdout).
func writeRunReport(stdout io.Writer, opts options, cfg core.Config, report *core.Report) error {
	data, err := json.Marshal(runReport{
		Algorithm:     opts.Alg,
		Environment:   opts.Env,
		Machines:      max(cfg.Machines, 1),
		Grid:          opts.Grid,
		StepsConsumed: report.StepsConsumed,
		TrainIters:    report.TrainIters,
		Throughput:    report.Throughput,
		DurationMS:    report.Duration.Milliseconds(),
		Episodes:      report.Episodes,
		MeanReturn:    report.MeanReturn,
		Leaked:        report.Channel.TotalLeaked(),
		Fragments:     report.Fragments,
	})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if opts.Report == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(opts.Report, data, 0o644)
}
