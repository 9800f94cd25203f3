package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xingtian/internal/broker"
)

// instance is one live deployment of a workload: the system under test plus
// the benchmark's load-generating goroutines around it.
type instance interface {
	// start launches the closed loop. tr is nil in the untraced pass.
	start(tr *tracer)
	// ready is closed when the first operation has completed and verified.
	ready() <-chan struct{}
	// progress returns the operations completed and verified so far and the
	// bytes the fabric has put on the wire. Cheap and safe to call live.
	progress() (ops, wireBytes int64)
	// health snapshots live channel health across the deployment.
	health() broker.ClusterHealth
	// stop ends the loop, waits for in-flight operations, tears the
	// deployment down and reports what the run observed; from and to bound
	// the measured interval for figures the instance derives itself.
	stop(from, to time.Time) outcome
}

// epoch is the zero of every sample's completion stamp.
var epoch = time.Now()

// sample is one operation's end-to-end latency, stamped with its completion
// time (since epoch) so the harness can assign it to a measurement window.
type sample struct {
	at time.Duration
	ms float64
}

// sampleLog is one goroutine's latency record. It grows by fixed chunks and
// never copies, so the harness's own memory rises evenly with the number of
// operations instead of doubling at some run lengths and not at others —
// which used to move peak_rss_mb by tens of MB between identical runs.
type sampleLog struct {
	chunks [][]sample
}

const sampleChunk = 1 << 14

func (l *sampleLog) add(at time.Time, ms float64) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == sampleChunk {
		l.chunks = append(l.chunks, make([]sample, 0, sampleChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, sample{at: at.Sub(epoch), ms: ms})
}

// each calls fn for every sample completed in [from, to).
func (l *sampleLog) each(from, to time.Time, fn func(s sample, index int)) {
	lo, hi := from.Sub(epoch), to.Sub(epoch)
	index := 0
	for _, c := range l.chunks {
		for _, s := range c {
			if s.at >= lo && s.at < hi {
				fn(s, index)
			}
			index++
		}
	}
}

// outcome is what an instance reports when it stops.
type outcome struct {
	attempted int64 // operations started
	verified  int64 // operations completed with a correct result
	// violations lists correctness failures; each also counts as a failed
	// operation and forces a non-zero exit.
	violations []string
	// samples holds one log per goroutine that completed operations.
	samples []*sampleLog
	// layers holds the per-layer figures observed live (span means, public
	// snapshots); extra holds figures printed but not gated.
	layers map[string]float64
	extra  map[string]float64
	spans  map[string]*spanStat
	// unloadedMS is the per-operation latency with nothing else in flight,
	// when the run itself is such a measurement (sequential rounds); zero
	// makes the traced pass measure it with a window of one.
	unloadedMS float64
}

// workloadDef describes one workload to the harness.
type workloadDef struct {
	name string
	why  string
	// op names the operation ops_per_s counts; latency says what op_p50_ms
	// and op_p95_ms time.
	op      string
	latency string
	// window is the closed loop's concurrency: operations in flight.
	window int
	// generate builds every input from the seed, before any clock starts.
	generate func(seed int64) (any, error)
	// setup builds the deployment (transport, ports, session) from the
	// generated inputs with the given closed-loop window. It is what
	// setup_s times.
	setup func(inputs any, window int) (instance, error)
	// staged replays the workload's own inputs through single layers on
	// standalone instances, each stage for about stageBudget, and returns
	// per-layer figures.
	staged func(inputs any, stageBudget time.Duration) (map[string]float64, error)
	// budget places the per-layer costs along one operation's path; the
	// harness sets them against the unloaded end-to-end latency.
	budget func(layers map[string]float64) []budgetRow
}

// budgetRow is one line of the latency budget: a layer's share of one
// operation's unloaded latency, in milliseconds.
type budgetRow struct {
	layer string
	ms    float64
	note  string
}

var workloads = []*workloadDef{uplinkFrames, uplinkVectors, downlinkWeights, trainIMPALAGrid}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// End-to-end metrics, in the order they are printed. BENCHMARK.json lists the
// same names with their bounds; a test keeps the two in step.
var endToEnd = []struct {
	name, unit string
	higher     bool // true when a larger value is better
}{
	{"ops_per_s", "1/s", true},
	{"op_p50_ms", "ms", false},
	{"op_p95_ms", "ms", false},
	{"cpu_us_per_op", "us", false},
	{"wire_bytes_per_op", "B", false},
	{"peak_rss_mb", "MB", false},
	{"setup_s", "s", false},
}

const (
	// warmUp runs the closed loop before the first window so connections,
	// pools and the Go heap reach steady state; throughput was still rising
	// two seconds in when this was sized.
	warmUp = 3 * time.Second
	// numWindows splits the measured time; see quiet for what is reported.
	numWindows = 20
	// Set-up is repeated at least setupMinReps times and then until
	// maxSetupBudget (less in short test runs) has passed or setupMaxReps is
	// reached.
	setupMinReps   = 5
	setupMaxReps   = 40
	maxSetupBudget = time.Second
)

// boundary is the harness's snapshot at a window edge.
type boundary struct {
	at   time.Time
	ops  int64
	wire int64
	cpu  time.Duration
}

func takeBoundary(in instance) boundary {
	ops, wire := in.progress()
	return boundary{at: time.Now(), ops: ops, wire: wire, cpu: processCPU()}
}

// measurement is one measured interval split into windows.
type measurement struct {
	edges []boundary // numWindows+1 snapshots
}

func measure(in instance, total time.Duration, poll func()) measurement {
	m := measurement{edges: []boundary{takeBoundary(in)}}
	start := m.edges[0].at
	for w := 1; w <= numWindows; w++ {
		deadline := start.Add(total * time.Duration(w) / numWindows)
		for {
			left := time.Until(deadline)
			if left <= 0 {
				break
			}
			if poll == nil {
				time.Sleep(left)
				continue
			}
			if left > pollEvery {
				left = pollEvery
			}
			time.Sleep(left)
			poll()
		}
		m.edges = append(m.edges, takeBoundary(in))
	}
	return m
}

// pollEvery is the traced pass's sampling period for live gauges (queue
// depths, goroutine count).
const pollEvery = 100 * time.Millisecond

func (m measurement) start() time.Time { return m.edges[0].at }
func (m measurement) end() time.Time   { return m.edges[len(m.edges)-1].at }

// windowRates returns the throughput of each window.
func (m measurement) windowRates() []float64 {
	var out []float64
	for w := 0; w+1 < len(m.edges); w++ {
		a, b := m.edges[w], m.edges[w+1]
		out = append(out, float64(b.ops-a.ops)/b.at.Sub(a.at).Seconds())
	}
	return out
}

// windowLatencies sorts the latencies of the operations completed in each
// window, from every goroutine's log.
func (m measurement) windowLatencies(logs []*sampleLog) [][]float64 {
	out := make([][]float64, len(m.edges)-1)
	for _, l := range logs {
		l.each(m.start(), m.end(), func(s sample, _ int) {
			w := sort.Search(len(out)-1, func(i int) bool { return m.edges[i+1].at.Sub(epoch) > s.at })
			out[w] = append(out[w], s.ms)
		})
	}
	for _, ms := range out {
		sort.Float64s(ms)
	}
	return out
}

// windowValues derives each end-to-end metric per window; latencies is what
// windowLatencies returned.
func (m measurement) windowValues(latencies [][]float64) map[string][]float64 {
	out := map[string][]float64{"ops_per_s": m.windowRates()}
	for w := 0; w+1 < len(m.edges); w++ {
		a, b := m.edges[w], m.edges[w+1]
		if ops := float64(b.ops - a.ops); ops > 0 {
			out["cpu_us_per_op"] = append(out["cpu_us_per_op"], float64((b.cpu-a.cpu).Microseconds())/ops)
			out["wire_bytes_per_op"] = append(out["wire_bytes_per_op"], float64(b.wire-a.wire)/ops)
		}
		if ms := latencies[w]; len(ms) > 0 {
			out["op_p50_ms"] = append(out["op_p50_ms"], percentile(ms, 50))
			out["op_p95_ms"] = append(out["op_p95_ms"], percentile(ms, 95))
		}
	}
	return out
}

// violations collects a run's correctness failures from any goroutine. The
// list is capped: once something is broken every operation may fail, and the
// first twenty say what.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	if len(v.list) < 20 {
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// firstOp signals a workload's first completed operation.
type firstOp struct {
	once sync.Once
	ch   chan struct{}
}

func newFirstOp() *firstOp { return &firstOp{ch: make(chan struct{})} }

func (f *firstOp) done()                  { f.once.Do(func() { close(f.ch) }) }
func (f *firstOp) ready() <-chan struct{} { return f.ch }

// dropsOutsideShedding sums, per machine, the drops a healthy run must never
// see: everything except backpressure shedding. Snapshotted before Stop,
// because shutdown itself drains queues into the shutdown counter.
func dropsOutsideShedding(h broker.ClusterHealth) (total int64, detail string) {
	for _, bm := range h.Brokers {
		d := bm.Drops
		if other := d.Total() - d.ShedOldest - d.StoreBudget; other != 0 {
			total += other
			detail += fmt.Sprintf(" m%d:%+v", bm.MachineID, d)
		}
	}
	return total, detail
}
