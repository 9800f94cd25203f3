// Command benchmark is the repository's one benchmark: four closed-loop
// workloads over the production path (fabric.Grid on loopback TCP, raw Go
// codec), end-to-end metrics from an untraced pass and per-layer metrics from
// a traced one. See README.md in this directory.
//
// The acceptance driver runs one pass of one workload per process:
//
//	benchmark --workload uplink-frames --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output, a JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every workload
// runs, each in a child process of its own so that peak_rss_mb is per
// workload; -compare and -aa judge two result files by BENCHMARK.json's
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and budget")
	specPath := fs.String("spec", filepath.Join("..", "BENCHMARK.json"), "path of BENCHMARK.json (metric bounds)")
	out := fs.String("out", filepath.Join("..", ".bench_build", "trace"), "directory the traced pass writes its spans to")
	record := fs.String("record", "", "also write the full run record(s) to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	aa := fs.Bool("aa", false, "run the workload set twice, interleaved, and compare the two results")
	runs := fs.Int("runs", 3, "with -aa: runs per side and workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	children := childArgs{seed: *seed, seconds: *secs, outDir: *out, specPath: *specPath}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *aa:
		return runAA(spec, children, *runs, *record, stdout, stderr)
	case *workload == "":
		set, code := runAll(children, *trace == 1, stdout, stderr)
		if *record != "" {
			if err := writeJSON(*record, set); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		printSummary(stdout, set)
		return code
	}

	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	opts := runOptions{seed: *seed, seconds: *secs, trace: *trace == 1, outDir: *out, log: stdout}
	fmt.Fprintf(stdout, "%s  seed %d  %.3g s  trace %d\n  why: %s\n  op: %s; latency: %s\n", w.name, *seed, *secs, *trace, w.why, w.op, w.latency)
	var rec *runRecord
	if opts.trace {
		rec, err = runTraced(w, opts)
	} else {
		rec, err = runUntraced(w, spec, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRecord(stdout, rec)
	if *record != "" {
		if err := writeJSON(*record, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The contract line: last on standard output, exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func printRecord(w io.Writer, rec *runRecord) {
	h := rec.Host
	fmt.Fprintf(w, "  host: num_cpu=%d GOMAXPROCS=%d %s load_avg_1m=%.2f\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.LoadAvg1)
	names := make([]string, 0, len(rec.Metrics))
	if rec.Trace {
		for _, l := range perLayer {
			names = append(names, l.name)
		}
	} else {
		for _, e := range endToEnd {
			names = append(names, e.name)
		}
	}
	for _, name := range names {
		mv := rec.Metrics[name]
		line := fmt.Sprintf("  %-34s %16.6g %-6s", name, mv.Value, mv.Unit)
		if vs := rec.Windows[name]; len(vs) > 0 {
			line += fmt.Sprintf("  windows %s  spread %.1f%%", formatValues(vs), 100*rec.WindowSpread[name])
		}
		fmt.Fprintln(w, line)
	}
	extras := make([]string, 0, len(rec.Extra))
	for name := range rec.Extra {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		mv := rec.Extra[name]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s  (not gated)\n", name, mv.Value, mv.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v disturbed=%v\n", rec.Attempted, rec.Failed, rec.Correct, rec.Disturbed)
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	if rec.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rec.SpanFile)
	}
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// resultSet is the file format -record writes and -compare reads.
type resultSet struct {
	Runs []*runRecord `json:"runs"`
}

type childArgs struct {
	seed     int64
	seconds  float64
	outDir   string
	specPath string
}

// runChild runs one pass of one workload in a child process and returns its
// record. The child's report is passed through to stdout.
func runChild(c childArgs, workload string, trace bool, stdout, stderr io.Writer) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", workload, err)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("child %s: %w", workload, err)
	}
	tmp, err := os.CreateTemp(c.outDir, "record-*.json")
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", workload, err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-trace", traceArg, "-spec", c.specPath, "-out", c.outDir, "-record", tmp.Name())
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(tmp.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("child %s left no record (exit: %v)", workload, runErr)
	}
	rec := &runRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("child %s record: %w", workload, err)
	}
	return rec, nil
}

// runAll runs every workload's untraced pass and, with traced set, its
// traced pass too. It returns exit code 1 if any pass failed.
func runAll(c childArgs, traced bool, stdout, stderr io.Writer) (*resultSet, int) {
	set := &resultSet{}
	code := 0
	for _, w := range workloads {
		passes := []bool{false}
		if traced {
			passes = append(passes, true)
		}
		for _, trace := range passes {
			rec, err := runChild(c, w.name, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
				continue
			}
			if !rec.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	return set, code
}

// printSummary prints one line per workload and metric, and where both
// passes ran, the tracing overhead: the throughput lost to recording spans.
func printSummary(w io.Writer, set *resultSet) {
	fmt.Fprintln(w, "summary")
	untraced := make(map[string]*runRecord)
	for _, rec := range set.Runs {
		if rec.Trace {
			continue
		}
		untraced[rec.Workload] = rec
		for _, e := range endToEnd {
			mv := rec.Metrics[e.name]
			fmt.Fprintf(w, "  %-18s %-18s %14.6g %s\n", rec.Workload, e.name, mv.Value, mv.Unit)
		}
		fmt.Fprintf(w, "  %-18s %-18s %14.6g share\n", rec.Workload, "failed_op_share", rec.Extra["failed_op_share"].Value)
	}
	for _, rec := range set.Runs {
		base := untraced[rec.Workload]
		if !rec.Trace || base == nil || base.Metrics["ops_per_s"].Value == 0 {
			continue
		}
		overhead := 1 - rec.Extra["ops_per_s"].Value/base.Metrics["ops_per_s"].Value
		fmt.Fprintf(w, "  %-18s tracing overhead %+.1f%% of untraced throughput\n", rec.Workload, 100*overhead)
	}
}
