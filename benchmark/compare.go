package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json — the contract between this
// benchmark and whoever runs it — that the program reads: workload names,
// metric names, and for each end-to-end metric the share of the baseline's
// median by which it may get worse.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	spec := &benchSpec{}
	return spec, readJSON(path, spec)
}

// bound returns the regression bound of an end-to-end metric, 0 if unknown.
func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// Verdicts of comparing a candidate (B) with a baseline (A) on one metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies the bound to two sets of values of one metric. worsening is
// how much worse B's median is than A's, as a share of A's median (negative:
// better). A pair whose run-to-run spread is wider than the bound cannot be
// called unchanged: it is unresolved, unless every B value beats every A
// value.
func judge(m metricSpec, a, b []float64) (verdict string, worsening, noise float64) {
	medA, medB := median(a), median(b)
	if medA != 0 {
		worsening = (medB - medA) / medA
	}
	if m.Better == "higher" {
		worsening = -worsening
	}
	noise = spread(a)
	if s := spread(b); s > noise {
		noise = s
	}
	switch {
	case noise > m.Bound:
		if allBetter(m, a, b) {
			return verdictBetter, worsening, noise
		}
		return verdictUnresolved, worsening, noise
	case worsening > m.Bound:
		return verdictWorse, worsening, noise
	case worsening < -m.Bound:
		return verdictBetter, worsening, noise
	default:
		return verdictSame, worsening, noise
	}
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// valuesOf collects one metric's values for one workload from a result set's
// untraced runs. A set with a single run of the workload contributes that
// run's per-window values instead, where it has them, so that noise is still
// visible.
func valuesOf(set *resultSet, workload, metric string) []float64 {
	var perRun []float64
	var only *runRecord
	for _, rec := range set.Runs {
		if rec.Trace || rec.Workload != workload {
			continue
		}
		if mv, ok := rec.Metrics[metric]; ok {
			perRun = append(perRun, mv.Value)
			only = rec
		}
	}
	if len(perRun) == 1 && len(only.Windows[metric]) > 1 {
		return only.Windows[metric]
	}
	return perRun
}

// compareSets prints one verdict per (workload, end-to-end metric) pair and
// returns how many came out worse.
func compareSets(spec *benchSpec, a, b *resultSet, w io.Writer) (worse int) {
	fmt.Fprintf(w, "%-18s %-18s %13s %13s %9s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worsening", "noise", "bound", "verdict")
	for _, ws := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(a, ws.Name, m.Name), valuesOf(b, ws.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing from one side\n", ws.Name, m.Name)
				continue
			}
			verdict, worsening, noise := judge(m, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-18s %13.6g %13.6g %+8.1f%% %6.1f%% %6.1f%%  %s\n",
				ws.Name, m.Name, median(va), median(vb), 100*worsening, 100*noise, 100*m.Bound, verdict)
		}
	}
	return worse
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, b := &resultSet{}, &resultSet{}
	for _, in := range []struct {
		path string
		set  *resultSet
	}{{pathA, a}, {pathB, b}} {
		if err := readJSON(in.path, in.set); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if worse := compareSets(spec, a, b, stdout); worse > 0 {
		fmt.Fprintf(stdout, "%d pair(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}

// runAA measures the same code twice — sides A and B alternate run by run,
// so drift on the host lands on both — and compares the two. Two sets of
// runs of one commit must agree within the benchmark's own bounds.
func runAA(spec *benchSpec, c childArgs, runs int, record string, stdout, stderr io.Writer) int {
	sides := [2]*resultSet{{}, {}}
	code := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			for side := range sides {
				// Alternate which side goes first.
				s := (side + r) % 2
				args := c
				args.seed = c.seed + int64(r)
				rec, err := runChild(args, w.name, false, stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					code = 1
					continue
				}
				if !rec.Correct {
					code = 1
				}
				sides[s].Runs = append(sides[s].Runs, rec)
			}
		}
	}
	if record != "" {
		ext := filepath.Ext(record)
		base := record[:len(record)-len(ext)]
		for i, name := range []string{"A", "B"} {
			if err := writeJSON(base+"."+name+ext, sides[i]); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "A/A: %d run(s) per side and workload, sides alternating\n", runs)
	if worse := compareSets(spec, sides[0], sides[1], stdout); worse > 0 {
		fmt.Fprintf(stdout, "%d pair(s) disagree by more than the bound\n", worse)
		code = 1
	}
	return code
}
