package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"time"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one pass of one workload reports: the metrics of
// the contract line plus the honest-harness record around them.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Host       hostRecord             `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Disturbed  bool                   `json:"disturbed"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Extra holds figures that are printed but not gated.
	Extra map[string]metricValue `json:"extra,omitempty"`
	// Windows holds each end-to-end metric per measurement window, and
	// WindowSpread their interquartile distance as a share of the median.
	Windows      map[string][]float64 `json:"windows,omitempty"`
	WindowSpread map[string]float64   `json:"window_spread,omitempty"`
	SpanFile     string               `json:"span_file,omitempty"`
}

type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where the traced pass writes its spans
	log     io.Writer
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmFor scales the warm-up down for short (test) runs.
func warmFor(total time.Duration) time.Duration {
	if w := total / 4; w < warmUp {
		return w
	}
	return warmUp
}

// buildStarted builds and starts one deployment, waits for its first
// operation to complete, and returns how long that took: the user-visible
// time from nothing to a system that has done work. Work moved into
// construction shows here, and so does work deferred to first use
// (connections, lazily built state).
func buildStarted(w *workloadDef, inputs any, window int, tr *tracer) (instance, time.Duration, error) {
	begin := time.Now()
	in, err := w.setup(inputs, window)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	in.start(tr)
	select {
	case <-in.ready():
	case <-time.After(firstOpTimeout):
		out := in.stop(time.Time{}, time.Time{})
		return nil, 0, fmt.Errorf("%s: no operation completed within %v of starting (%v)", w.name, firstOpTimeout, out.violations)
	}
	return in, time.Since(begin), nil
}

// firstOpTimeout bounds the wait for a fresh deployment's first operation.
const firstOpTimeout = 10 * time.Second

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(w *workloadDef, spec *benchSpec, opts runOptions) (*runRecord, error) {
	rec := newRecord(w, opts)
	inputs, err := w.generate(opts.seed)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}

	// Set-up is timed repeatedly (on loopback it takes milliseconds, so one
	// timing would be mostly noise) and setup_s is the quiet decile of the
	// repetitions; every deployment but the last is stopped at once, the
	// last one is measured.
	var in instance
	var setups []float64
	total := seconds(opts.seconds)
	setupBudget := maxSetupBudget
	if total/2 < setupBudget {
		setupBudget = total / 2
	}
	for begin := time.Now(); len(setups) < setupMinReps ||
		(len(setups) < setupMaxReps && time.Since(begin) < setupBudget); {
		if in != nil {
			in.stop(time.Time{}, time.Time{})
		}
		var took time.Duration
		if in, took, err = buildStarted(w, inputs, w.window, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	// Hand the set-up repetitions' garbage back to the OS, warm up, and only
	// then restart the RSS high-water mark: peak_rss_mb is the measured
	// system's, not the harness's.
	debug.FreeOSMemory()
	time.Sleep(warmFor(total))
	resetPeakRSS()
	m := measure(in, total, nil)
	// The disturbed check can only look at window-to-window movement, so it
	// uses the metric every workload has per window: throughput.
	if bound := spec.bound("ops_per_s"); spread(m.windowRates()) > 2*bound {
		rec.Disturbed = true
		fmt.Fprintf(opts.log, "  disturbed: window throughput spread %.1f%% exceeds twice the %.0f%% bound; measuring once more\n",
			100*spread(m.windowRates()), 100*bound)
		m = measure(in, total, nil)
	}
	out := in.stop(m.start(), m.end())

	rss := peakRSSMB() // before the analysis below allocates anything
	rec.fillOutcome(out)
	latencies := m.windowLatencies(out.samples)
	rec.Windows = m.windowValues(latencies)
	rec.WindowSpread = make(map[string]float64)
	for name, vs := range rec.Windows {
		rec.WindowSpread[name] = spread(vs)
	}
	first, last := m.edges[0], m.edges[len(m.edges)-1]
	for _, e := range endToEnd {
		var v float64
		switch e.name {
		case "wire_bytes_per_op":
			// A count, not a timing: no quiet end to prefer, and the whole
			// interval's ratio does not care which window a frame fell in.
			if ops := last.ops - first.ops; ops > 0 {
				v = float64(last.wire-first.wire) / float64(ops)
			}
		case "peak_rss_mb":
			v = rss
		case "setup_s":
			v = quiet(setups, e.higher)
		default:
			v = quiet(rec.Windows[e.name], e.higher)
		}
		rec.Metrics[e.name] = metricValue{Value: v, Unit: e.unit}
	}

	// Printed, not gated: the plain whole-interval figures, and tails too
	// unsteady to hold a bound (p99 moved 15–20 % between identical runs).
	var all []float64
	for _, ms := range latencies {
		all = append(all, ms...)
	}
	lat := summarizeMillis(all)
	rec.Extra["whole_run_ops_per_s"] = metricValue{float64(last.ops-first.ops) / last.at.Sub(first.at).Seconds(), "1/s"}
	rec.Extra["whole_run_p50_ms"] = metricValue{lat.P50, "ms"}
	rec.Extra["whole_run_p95_ms"] = metricValue{lat.P95, "ms"}
	rec.Extra["whole_run_p99_ms"] = metricValue{lat.P99, "ms"}
	rec.Extra["whole_run_p99.9_ms"] = metricValue{lat.P99_9, "ms"}
	rec.Extra["latency_samples"] = metricValue{float64(lat.Count), "count"}
	rec.Extra["setup_reps"] = metricValue{float64(len(setups)), "count"}
	rec.Extra["failed_op_share"] = metricValue{float64(rec.Failed) / float64(rec.Attempted), "share"}
	for name, v := range out.extra {
		rec.Extra[name] = metricValue{v, "share"}
	}
	if last.ops == first.ops {
		rec.Violations = append(rec.Violations, "no operation completed inside the measured interval")
		rec.settle()
	}
	return rec, nil
}

func newRecord(w *workloadDef, opts runOptions) *runRecord {
	return &runRecord{
		Workload: w.name,
		Seed:     opts.seed,
		Seconds:  opts.seconds,
		Trace:    opts.trace,
		Host:     readHost(),
		Correct:  true,
		Metrics:  make(map[string]metricValue),
		Extra:    make(map[string]metricValue),
	}
}

// settle enforces the record's invariants after its counts or violations
// changed: at least one operation attempted, every violation worth at least
// one failed operation, and correct exactly when nothing failed.
func (r *runRecord) settle() {
	if r.Attempted < 1 {
		r.Violations = append(r.Violations, "no operation was attempted")
		r.Attempted = 1
	}
	if len(r.Violations) > 0 && r.Failed == 0 {
		r.Failed = 1
	}
	r.Correct = r.Failed == 0
}

func (r *runRecord) fillOutcome(out outcome) {
	r.Attempted = out.attempted
	r.Failed = out.attempted - out.verified
	r.Violations = out.violations
	r.settle()
}

// runTraced produces a workload's per-layer metrics: a live run with spans
// and polled gauges, the unloaded latency, the staged replay, and the budget
// that lays the three side by side.
func runTraced(w *workloadDef, opts runOptions) (*runRecord, error) {
	rec := newRecord(w, opts)
	inputs, err := w.generate(opts.seed)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}

	tr := newTracer()
	in, _, err := buildStarted(w, inputs, w.window, tr)
	if err != nil {
		return nil, err
	}
	// Half the time goes to the live traced run; the unloaded run and the
	// staged replay share the rest.
	total := seconds(opts.seconds) / 2
	time.Sleep(warmFor(total))
	var g gauges
	probe := startRuntimeProbe()
	m := measure(in, total, func() {
		g.observe(in.health())
		probe.observe()
	})
	allocMBPerS, gcCPUFrac := probe.finish()
	out := in.stop(m.start(), m.end())
	rec.fillOutcome(out)

	layers := out.layers
	layers["broker.queue_depth_max"] = float64(g.queueDepthMax)
	layers["runtime.alloc_mb_per_s"] = allocMBPerS
	layers["runtime.gc_cpu_frac"] = gcCPUFrac
	layers["runtime.goroutines_max"] = float64(probe.goroutinesMax)
	rec.Extra["ops_per_s"] = metricValue{median(m.windowRates()), "1/s"}
	for name, v := range out.extra {
		rec.Extra[name] = metricValue{v, "share"}
	}

	unloaded := out.unloadedMS
	if unloaded == 0 {
		if unloaded, err = unloadedLatency(w, inputs, seconds(opts.seconds)/6); err != nil {
			return nil, err
		}
	}
	staged, err := w.staged(inputs, stageBudgetFor(seconds(opts.seconds)))
	if err != nil {
		return nil, err
	}
	for name, v := range staged {
		layers[name] = v
	}

	rows := w.budget(layers)
	var placed float64
	for _, r := range rows {
		placed += r.ms
	}
	layers["budget.unloaded_ms"] = unloaded
	layers["budget.residual_ms"] = unloaded - placed
	for _, l := range perLayer {
		rec.Metrics[l.name] = metricValue{Value: layers[l.name], Unit: l.unit}
	}
	for name := range layers {
		if _, listed := rec.Metrics[name]; !listed {
			return nil, fmt.Errorf("%s produced per-layer metric %q that the perLayer table does not list", w.name, name)
		}
	}

	if opts.outDir != "" {
		if rec.SpanFile, err = writeSpans(opts.outDir, w.name, tr.all()); err != nil {
			return nil, err
		}
	}
	printBudget(opts.log, w, rows, unloaded, out.spans)
	return rec, nil
}

// unloadedLatency runs the workload with a window of one — a single
// operation in flight, nothing queueing behind anything — and returns the
// median latency of everything it completed, the cold first operations
// included (the median does not feel them).
func unloadedLatency(w *workloadDef, inputs any, total time.Duration) (float64, error) {
	from := time.Now()
	in, _, err := buildStarted(w, inputs, 1, nil)
	if err != nil {
		return 0, err
	}
	time.Sleep(total)
	to := time.Now()
	out := in.stop(from, to)
	var all []float64
	for _, l := range out.samples {
		l.each(from, to, func(s sample, _ int) { all = append(all, s.ms) })
	}
	return median(all), nil
}

func printBudget(log io.Writer, w *workloadDef, rows []budgetRow, unloaded float64, spans map[string]*spanStat) {
	fmt.Fprintf(log, "  budget: %s, nothing else in flight: %.4f ms\n", w.latency, unloaded)
	var placed float64
	for _, r := range rows {
		placed += r.ms
		fmt.Fprintf(log, "    %-12s %9.4f ms  %5.1f%%  %s\n", r.layer, r.ms, 100*r.ms/unloaded, r.note)
	}
	residual := unloaded - placed
	fmt.Fprintf(log, "    %-12s %9.4f ms  %5.1f%%  not timeable from outside: routing, scheduling, allocation, waiting\n",
		"residual", residual, 100*residual/unloaded)
	fmt.Fprintf(log, "    %-12s %9.4f ms  rows + residual\n", "sum", placed+residual)
	if len(spans) == 0 {
		return
	}
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "  spans of the live traced run (mean per span):\n")
	for _, n := range names {
		st := spans[n]
		fmt.Fprintf(log, "    %-22s n=%-8d duration %10.1f us  self %10.1f us\n", n, st.Count, st.MeanUS, st.SelfUS)
	}
}
