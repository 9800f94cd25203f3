package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func poolSums(t *testing.T, kind rolloutKind, seed int64) []bodySum {
	t.Helper()
	pool, err := genRolloutPool(kind, seed, 3)
	if err != nil {
		t.Fatalf("genRolloutPool: %v", err)
	}
	return pool.sums
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, kind := range []rolloutKind{frameRollouts, vectorRollouts} {
		a, b, other := poolSums(t, kind, 7), poolSums(t, kind, 7), poolSums(t, kind, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %v then %v", kind.envName, a, b)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool %v", kind.envName, a)
		}
	}
	a, b, other := genWeightSchedule(7), genWeightSchedule(7), genWeightSchedule(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("weight schedule: seed 7 gave two different schedules")
	}
	if reflect.DeepEqual(a.initial, other.initial) || reflect.DeepEqual(a.steps[0], other.steps[0]) {
		t.Error("weight schedule: seeds 7 and 8 gave the same schedule")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{{0, 10}, {50, 30}, {95, 48}, {100, 50}, {25, 20}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// One disturbed window must not move the median of windows.
	if got := median([]float64{100, 101, 40, 99, 102}); got != 100 {
		t.Errorf("median of windows = %v, want 100", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// quartiles must agree with it. Expected values come from CPython 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 7, 4, 4, 6, 2, 8}, 4, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestJudgeAppliesBound(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{105, 104, 106, 105, 105}, verdictSame},
		{"latency up 20%", lower, steady, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"latency down 20%", lower, steady, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119, 120, 120}, verdictBetter},
		{"noisy, overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{"noisy, every B beats every A", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictBetter},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	buf := tr.buffer()
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	buf.add("delivery", "", 1, at(0), at(100))
	buf.add("broker.send", "delivery", 1, at(0), at(30))
	buf.add("apply", "delivery", 1, at(20), at(50)) // overlaps send by 10 us
	buf.add("delivery", "", 2, at(200), at(260))
	stats := selfTimes(tr.all())
	d := stats["delivery"]
	if d == nil || d.Count != 2 {
		t.Fatalf("delivery stat = %+v, want 2 spans", d)
	}
	// Trace 1: 100 − 50 covered = 50 self; trace 2: 60 self; mean 55.
	if math.Abs(d.SelfUS-55) > 1e-9 || math.Abs(d.MeanUS-80) > 1e-9 {
		t.Errorf("delivery self %.1f us mean %.1f us, want 55 and 80", d.SelfUS, d.MeanUS)
	}
	var nilTracer *tracer
	nilTracer.buffer().add("x", "", 1, at(0), at(1)) // the untraced pass: must be a no-op
	if len(nilTracer.all()) != 0 {
		t.Error("nil tracer recorded spans")
	}
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name + " " + m.Unit
	}
	return out
}

// BENCHMARK.json is the contract the driver reads; the tables in this package
// are what the program emits. They must say the same thing.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, gotWorkloads []string
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, w.name)
	}
	for _, w := range spec.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	if !reflect.DeepEqual(gotWorkloads, wantWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", gotWorkloads, wantWorkloads)
	}
	var wantE2E, wantLayers []string
	for _, e := range endToEnd {
		better := "lower"
		if e.higher {
			better = "higher"
		}
		wantE2E = append(wantE2E, e.name+" "+e.unit+" "+better)
	}
	for _, l := range perLayer {
		wantLayers = append(wantLayers, l.name+" "+l.unit)
	}
	var gotE2E []string
	for _, m := range spec.EndToEnd {
		gotE2E = append(gotE2E, m.Name+" "+m.Unit+" "+m.Better)
	}
	if got := gotE2E; !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", got, wantE2E)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, wantLayers) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", got, wantLayers)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func smoke(t *testing.T, workload, trace string) contractLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
		"-out", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s trace %s: last line is not the contract object: %v\n%s%s", workload, trace, err, stdout.String(), stderr.String())
	}
	if code != 0 || !got.Correct || got.Failed != 0 || got.Attempted < 1 {
		t.Errorf("%s trace %s: exit %d, %+v\n%s%s", workload, trace, code, got, stdout.String(), stderr.String())
	}
	return got
}

// A half-second run of every workload, both passes: the emitted metric names
// are exactly those BENCHMARK.json lists, and every end-to-end metric is
// non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range spec.Workloads {
		ws := ws
		t.Run(ws.Name, func(t *testing.T) {
			got := smoke(t, ws.Name, "0")
			if len(got.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced pass emitted %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				mv, ok := got.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit || !(mv.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, mv, ok, m.Unit)
				}
			}
			layers := smoke(t, ws.Name, "1")
			if len(layers.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced pass emitted %d metrics, BENCHMARK.json lists %d", len(layers.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if mv, ok := layers.Metrics[m.Name]; !ok || mv.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, mv, ok, m.Unit)
				}
			}
			// The budget must add up: rows + residual = unloaded latency is
			// printed by construction; here, the unloaded latency exists.
			if !(layers.Metrics["budget.unloaded_ms"].Value > 0) {
				t.Errorf("budget.unloaded_ms = %v, want > 0", layers.Metrics["budget.unloaded_ms"].Value)
			}
		})
	}
}
