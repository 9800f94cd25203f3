package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xingtian/internal/core"
)

var update = flag.Bool("update", false, "rewrite README.md's flag table from the tags")

// TestFlagDefaultsGolden pins every flag's name, type, default and help
// string, byte for byte, to testdata/flags.golden: renaming a flag,
// changing a default or dropping one breaks scripts and configs.
func TestFlagDefaultsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
	usage, body, _ := strings.Cut(stderr.String(), "\n")
	if usage != "Usage of xt-train:" {
		t.Fatalf("usage line = %q", usage)
	}
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Errorf("PrintDefaults differs from testdata/flags.golden:\n%s", body)
	}
	if n := strings.Count("\n"+body, "\n  -"); n != 30 {
		t.Errorf("%d flags, want 30", n)
	}
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJSONConfig loads a config that sets every key xt-train has ever read,
// plus the removed sync_every, weight_delta, weight_quant_bits and
// weight_tree_fanout and a key
// nobody declares, and compares the result with the Config the key-by-key
// mapping of the JSON record gives.
func TestJSONConfig(t *testing.T) {
	path := writeConfig(t, `{
		"algorithm": "IMPALA", "environment": "BeamRider", "seed": 7,
		"explorers": 8, "machines": 4, "rollout_len": 500,
		"max_steps": 100000, "max_seconds": 60, "compress": true,
		"restarts": 3, "restart_backoff_ms": 250,
		"store_budget": 1048576, "shed_depth": 16, "credits": 4,
		"checkpoint": "run.ckpt", "checkpoint_every": 50, "checkpoint_keep": 2, "resume": true,
		"weight_delta": true, "weight_quant_bits": 0, "weight_skip_factor": 0.1, "weight_tree_fanout": 2,
		"topology": "replicated", "learners": 2, "max_staleness": 3,
		"learner_restarts": 2, "heartbeat_ms": 50,
		"grid": true, "machine_failover": true, "lease_ms": 10,
		"sync_every": 5, "no_such_key": {"nested": [1, 2]}
	}`)
	opts, cfg, err := parse([]string{"-explorers", "3", "-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wantCfg := core.Config{
		NumExplorers: 8, Machines: 4, RolloutLen: 500,
		MaxSteps: 100000, MaxDuration: 60 * time.Second, Compress: true,
		MaxExplorerRestarts: 3, RestartBackoff: 250 * time.Millisecond,
		StoreBudget: 1 << 20, ShedQueueDepth: 16, MaxInflight: 4,
		CheckpointPath: "run.ckpt", CheckpointEvery: 50, CheckpointKeep: 2, Resume: true,
		WeightSkipFactor: 0.1,
		Topology:         core.Topology{Learners: 2, MaxStaleness: 3},
		LearnerFailover:  true, MaxLearnerRestarts: 2, HeartbeatEvery: 50 * time.Millisecond,
		MachineFailover: true, LeaseEvery: 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("config:\n got %+v\nwant %+v", cfg, wantCfg)
	}
	wantOpts := options{Alg: "IMPALA", Env: "BeamRider", Seed: 7, Config: path,
		Topology: "replicated", Learners: 2, LearnerRestarts: 2, Grid: true}
	if opts != wantOpts {
		t.Errorf("options:\n got %+v\nwant %+v", opts, wantOpts)
	}
}

// TestJSONConfigKeepsFlags: keys a config leaves out keep the flag values,
// and a fused topology drops the staleness bound, as it always has.
func TestJSONConfigKeepsFlags(t *testing.T) {
	path := writeConfig(t, `{"machines": 3, "topology": "fused", "max_staleness": 5, "algorithm": "PPO"}`)
	opts, cfg, err := parse([]string{"-explorers", "7", "-restart-backoff", "500us",
		"-heartbeat", "1500us", "-seconds", "9", "-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := defaults()
	want.Alg, want.Config, want.Topology = "PPO", path, "fused"
	if opts != want {
		t.Errorf("options = %+v, want %+v", opts, want)
	}
	_, wantCfg := defaults()
	wantCfg.NumExplorers, wantCfg.Machines = 7, 3
	wantCfg.RestartBackoff, wantCfg.HeartbeatEvery = 500*time.Microsecond, 1500*time.Microsecond
	wantCfg.MaxDuration, wantCfg.Topology = 9*time.Second, core.Topology{}
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("config:\n got %+v\nwant %+v", cfg, wantCfg)
	}
}

// TestDurationFlagsKeepPrecision: -restart-backoff and -heartbeat reach
// Config exactly; they used to be truncated to whole milliseconds, so
// 500us became 0 (and the 10 ms default) and 1500us became 1 ms.
func TestDurationFlagsKeepPrecision(t *testing.T) {
	_, cfg, err := parse([]string{"-restart-backoff", "500us", "-heartbeat", "1500us"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RestartBackoff != 500*time.Microsecond {
		t.Errorf("RestartBackoff = %v, want 500µs", cfg.RestartBackoff)
	}
	if cfg.HeartbeatEvery != 1500*time.Microsecond {
		t.Errorf("HeartbeatEvery = %v, want 1.5ms", cfg.HeartbeatEvery)
	}
}

// TestContradictoryFlagsExit2: every combination that cannot mean anything
// is a usage error (exit 2) before anything starts.
func TestContradictoryFlagsExit2(t *testing.T) {
	replicated2 := []string{"-topology", "replicated", "-learners", "2"}
	cases := []struct {
		name string
		args []string
	}{
		{"learners without replicated", []string{"-learners", "2"}},
		{"learner-restarts fused", []string{"-learner-restarts", "1"}},
		{"learner-restarts one learner", []string{"-topology", "replicated", "-learner-restarts", "0"}},
		{"lease-ms without machine-failover", []string{"-lease-ms", "10"}},
		{"machine-failover without grid", append([]string{"-machine-failover", "-machines", "2"}, replicated2...)},
		{"machine-failover one machine", append([]string{"-machine-failover", "-grid", "-machines", "1"}, replicated2...)},
		{"machine-failover fused", []string{"-machine-failover", "-grid", "-machines", "2"}},
		{"unknown topology", []string{"-topology", "sharded"}},
		{"unknown algorithm", []string{"-alg", "A3C"}},
		{"unknown flag", []string{"-sync-every", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit = %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing (the run must not start)", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Error("no message on stderr")
			}
		})
	}
}

// TestRunReport trains DQN on CartPole briefly and reads back the -report
// line: it must parse and show a drained object store.
func TestRunReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-alg", "DQN", "-env", "CartPole", "-explorers", "2", "-steps", "1000",
		"-rollout", "50", "-seconds", "60", "-report", "-"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last stdout line is not the report: %v\n%s", err, stdout.String())
	}
	if rep.Algorithm != "DQN" || rep.Environment != "CartPole" || rep.Machines != 1 {
		t.Errorf("run shape = %+v", rep)
	}
	if rep.StepsConsumed < 1000 {
		t.Errorf("steps_consumed = %d, want >= 1000", rep.StepsConsumed)
	}
	if rep.Leaked != 0 {
		t.Errorf("leaked = %d, want 0", rep.Leaked)
	}
}

const (
	tableBegin = "<!-- xt-train flags: generated from the struct tags; regenerate with `go test ./cmd/xt-train -run READMEFlagTable -update` -->"
	tableEnd   = "<!-- end xt-train flags -->"
)

// flagTable renders every flag, its JSON key and default and its help
// text as a Markdown table.
func flagTable() string {
	opts, cfg := defaults()
	fs := flag.NewFlagSet("xt-train", flag.ContinueOnError)
	ks, _ := bind(fs, &opts, &cfg)
	keys := map[string]string{}
	for _, k := range ks {
		keys[k.name] = k.key
	}
	cell := strings.NewReplacer("|", `\|`, "<", `\<`).Replace
	var b strings.Builder
	b.WriteString("| Flag | JSON key | Default | Meaning |\n|---|---|---|---|\n")
	fs.VisitAll(func(f *flag.Flag) {
		typ, help := flag.UnquoteUsage(f)
		name, key, def := "`-"+strings.TrimSpace(f.Name+" "+typ)+"`", "", ""
		if keys[f.Name] != "" {
			key = "`" + keys[f.Name] + "`"
		}
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", name, key, def, cell(help))
	})
	return b.String()
}

// TestREADMEFlagTable fails when README.md's flag table is not the one the
// tags generate; -update rewrites it.
func TestREADMEFlagTable(t *testing.T) {
	const path = "../../README.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok1 := strings.Cut(string(data), tableBegin+"\n")
	current, after, ok2 := strings.Cut(rest, tableEnd)
	if !ok1 || !ok2 {
		t.Fatalf("README.md lacks the flag table markers %q … %q", tableBegin, tableEnd)
	}
	want := flagTable()
	if current == want {
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(before+tableBegin+"\n"+want+tableEnd+after), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Errorf("README.md's flag table is stale; run go test ./cmd/xt-train -run READMEFlagTable -update. Want:\n%s", want)
}
