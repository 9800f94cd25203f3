package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/fabric"
	"xingtian/internal/message"
	"xingtian/internal/queue"
	"xingtian/internal/serialize"
	"xingtian/internal/weightplane"
)

// downlink-weights drives the channel the other way round: one learner port
// broadcasts each new weights version to four explorer ports on three
// machines, through the fused learner's own broadcast sequence (weight-plane
// plan, one message per planned group). A round ends when all four
// destinations have applied the version.

const (
	downlinkLearner = "learner"
	// resyncEvery forces one destination back to a dense snapshot every
	// tenth version — what an explorer's ControlWeightsResync NACK does — so
	// a tenth of the rounds carry a 1.2 MB incompressible frame.
	resyncEvery = 10
	// fullCheckEvery is how often every parameter of every destination is
	// compared; the rounds between compare the parameters the round touched.
	fullCheckEvery = 10
)

// downlinkDsts places two explorers beside the learner and one on each of
// two other machines, so one broadcast exercises local fan-out and two wire
// hops at once.
var downlinkDsts = []struct {
	name    string
	machine int
}{
	{"explorer-0", 0}, {"explorer-1", 0}, {"explorer-2", 1}, {"explorer-3", 2},
}

var downlinkWeights = &workloadDef{
	name:    "downlink-weights",
	why:     "1→4 weight broadcast over 3 machines, int8 deltas with a dense resync every 10th version: multi-destination routing and N-reference objects",
	op:      "broadcast round applied by all four destinations",
	latency: "Planner.Plan start → last destination applied the version",
	window:  1,
	generate: func(seed int64) (any, error) {
		return genWeightSchedule(seed), nil
	},
	setup:  setupDownlink,
	staged: stagedDownlink,
	budget: downlinkBudget,
}

type destination struct {
	name    string
	port    *broker.Port
	vec     []float32
	version int64
}

type appliedEvent struct {
	dst     int
	version int64
	err     error
}

type downlink struct {
	ws      *weightSchedule
	grid    *fabric.Grid
	learner *broker.Port
	dsts    []*destination
	names   []string
	planner *weightplane.Planner
	*firstOp
	applied chan appliedEvent
	stopCh  chan struct{}
	// learnerDone closes when the learner loop has returned.
	learnerDone chan struct{}
	wg          sync.WaitGroup

	attempted atomic.Int64
	verified  atomic.Int64

	violations

	// Owned by the learner goroutine until stop.
	samples      sampleLog
	denseRound   []bool // by sample index
	plannedBytes int64
	tr           *tracer
}

func setupDownlink(inputs any, _ int) (instance, error) {
	g, err := newGrid(3, true)
	if err != nil {
		return nil, err
	}
	d := &downlink{
		ws:      inputs.(*weightSchedule),
		grid:    g,
		planner: weightplane.New(weightplane.Config{Enabled: true, QuantBits: serialize.QuantInt8}),
		// One event per destination per round; the learner drains all four
		// before it starts the next round.
		applied:     make(chan appliedEvent, len(downlinkDsts)),
		stopCh:      make(chan struct{}),
		learnerDone: make(chan struct{}),
		firstOp:     newFirstOp(),
	}
	if d.learner, err = g.Register(0, downlinkLearner); err != nil {
		g.Stop()
		return nil, err
	}
	for _, spec := range downlinkDsts {
		port, err := g.Register(spec.machine, spec.name)
		if err != nil {
			g.Stop()
			return nil, err
		}
		d.dsts = append(d.dsts, &destination{name: spec.name, port: port})
		d.names = append(d.names, spec.name)
	}
	return d, nil
}

func (d *downlink) start(tr *tracer) {
	d.tr = tr
	for i := range d.dsts {
		d.wg.Add(1)
		go d.applyLoop(i, tr.buffer())
	}
	go d.learnerLoop(tr.buffer())
}

// applyLoop is one explorer's receive side: install dense snapshots, advance
// by deltas exactly as the agents' weight mirror does, report each version.
func (d *downlink) applyLoop(idx int, spans *spanBuf) {
	defer d.wg.Done()
	dst := d.dsts[idx]
	for {
		m, err := dst.port.Recv()
		if errors.Is(err, queue.ErrClosed) {
			return
		}
		if err != nil {
			d.applied <- appliedEvent{dst: idx, err: err}
			continue
		}
		start := time.Now()
		ev := appliedEvent{dst: idx, version: m.Header.WeightsVersion}
		switch body := m.Body.(type) {
		case *message.WeightsPayload:
			dst.vec = append(dst.vec[:0], body.Data...)
			dst.version = body.Version
		case *message.WeightsDeltaPayload:
			if body.BaseVersion != dst.version {
				ev.err = fmt.Errorf("%s holds version %d, delta expects base %d", dst.name, dst.version, body.BaseVersion)
				break
			}
			next, err := serialize.ApplyDelta(dst.vec, body)
			if err != nil {
				ev.err = err
				break
			}
			dst.vec, dst.version = next, body.Version
		default:
			ev.err = fmt.Errorf("%s received %T, want weights", dst.name, m.Body)
		}
		spans.add("serialize.apply", "round", uint64(ev.version), start, time.Now())
		d.applied <- ev
	}
}

func (d *downlink) learnerLoop(spans *spanBuf) {
	defer close(d.learnerDone)
	cur := append([]float32(nil), d.ws.initial...)
	for v := int64(1); ; v++ {
		select {
		case <-d.stopCh:
			return
		default:
		}
		touched := d.ws.apply(cur, v)
		dense := v == 1 || v%resyncEvery == 0
		if v%resyncEvery == 0 {
			d.planner.MarkStale(d.names[len(d.names)-1])
		}
		d.attempted.Add(1)

		// The fused learner's broadcast, verbatim (core.Learner.broadcastWeights).
		begin := time.Now()
		outs := d.planner.Plan(cur, v, d.names, d.learner.AckedWeights())
		planned := time.Now()
		spans.add("weightplane.plan", "round", uint64(v), begin, planned)
		for _, o := range outs {
			m := message.New(o.Type, downlinkLearner, o.Dsts, o.Body)
			m.Header.WeightsVersion = v
			m.Header.BaseVersion = o.BaseVersion
			sendStart := time.Now()
			if err := d.learner.Send(m); err != nil {
				d.violations.add("round %d send: %v", v, err)
			}
			spans.add("broker.send", "round", uint64(v), sendStart, time.Now())
			d.plannedBytes += int64(m.Header.BodySize) * int64(len(o.Dsts))
		}
		ok := d.awaitRound(v)
		end := time.Now()
		spans.add("round", "", uint64(v), begin, end)
		if !ok {
			return // a destination is lost; later rounds could never complete
		}
		d.samples.add(end, end.Sub(begin).Seconds()*1e3)
		d.denseRound = append(d.denseRound, dense)
		if d.check(cur, v, touched) {
			d.verified.Add(1)
			d.done()
		}
	}
}

// awaitRound collects one applied event per destination for version v.
func (d *downlink) awaitRound(v int64) bool {
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	clean := true
	for got := 0; got < len(d.dsts); got++ {
		select {
		case ev := <-d.applied:
			if ev.err != nil {
				d.violations.add("round %d at %s: %v", v, d.names[ev.dst], ev.err)
				clean = false
			} else if ev.version != v {
				d.violations.add("round %d: %s applied version %d", v, d.names[ev.dst], ev.version)
				clean = false
			}
		case <-timeout.C:
			d.violations.add("round %d: %d of %d destinations applied within 5 s", v, got, len(d.dsts))
			return false
		}
	}
	return clean
}

// check verifies the round's result: every destination holds bit-identical
// parameters, within one quantization step of the learner's. Every
// fullCheckEvery-th round compares all parameters; the others compare the
// ones the round perturbed (an untouched parameter can only change through a
// bug the next full check catches). The destinations are idle between
// rounds, so reading their vectors here is race-free.
func (d *downlink) check(cur []float32, v int64, touched perturbation) bool {
	// A perturbation can hit one index more than once in a round, so the
	// largest delta — which sets the int8 scale — is a small multiple of
	// the amplitude; four covers it with room.
	tol := 4 * d.ws.amplitude / 127
	ref := d.dsts[0].vec
	for _, dst := range d.dsts {
		if len(dst.vec) != len(cur) {
			d.violations.add("round %d: %s holds %d parameters, want %d", v, dst.name, len(dst.vec), len(cur))
			return false
		}
	}
	at := func(i int) bool {
		if diff := ref[i] - cur[i]; diff > tol || diff < -tol {
			d.violations.add("round %d: parameter %d is %g at %s, learner has %g", v, i, ref[i], d.dsts[0].name, cur[i])
			return false
		}
		bits := math.Float32bits(ref[i])
		for _, dst := range d.dsts[1:] {
			if math.Float32bits(dst.vec[i]) != bits {
				d.violations.add("round %d: parameter %d differs between %s and %s", v, i, d.dsts[0].name, dst.name)
				return false
			}
		}
		return true
	}
	if v%fullCheckEvery == 0 {
		for i := range cur {
			if !at(i) {
				return false
			}
		}
		return true
	}
	for _, i := range touched.indices {
		if !at(int(i)) {
			return false
		}
	}
	return true
}

func (d *downlink) progress() (int64, int64) {
	return d.verified.Load(), wireBytesSent(d.grid)
}

func (d *downlink) health() broker.ClusterHealth { return d.grid.Health() }

func (d *downlink) stop(from, to time.Time) outcome {
	close(d.stopCh)
	// The learner loop finishes (or times out) its round and exits; only then
	// is the transport closed, which ends the apply loops.
	<-d.learnerDone
	pre := d.grid.Health()
	if n, detail := dropsOutsideShedding(pre); n != 0 {
		d.violations.add("%d drop(s) outside backpressure shedding before stop:%s", n, detail)
	}
	d.grid.Stop()
	d.wg.Wait()
	post := d.grid.Health()

	plane := d.planner.Stats()
	if d.attempted.Load() > 1 && (plane.Dense == 0 || plane.Delta == 0) {
		d.violations.add("weight plane planned %d dense and %d delta sends; both paths must run", plane.Dense, plane.Delta)
	}
	out := outcome{
		attempted:  d.attempted.Load(),
		verified:   d.verified.Load(),
		violations: d.violations.list,
		samples:    []*sampleLog{&d.samples},
		layers:     channelLayers(pre, post),
		spans:      selfTimes(d.tr.all()),
	}
	out.layers["weightplane.dense"] = float64(plane.Dense)
	out.layers["weightplane.delta"] = float64(plane.Delta)
	out.layers["weightplane.empty"] = float64(plane.Empty)
	if d.plannedBytes > 0 {
		denseEquivalent := float64(len(d.denseRound)) * float64(len(d.dsts)) * 4 * float64(len(d.ws.initial))
		out.layers["weightplane.bytes_ratio"] = denseEquivalent / float64(d.plannedBytes)
	}
	var deltaMS, denseMS, allMS []float64
	d.samples.each(from, to, func(s sample, i int) {
		allMS = append(allMS, s.ms)
		if d.denseRound[i] {
			denseMS = append(denseMS, s.ms)
		} else {
			deltaMS = append(deltaMS, s.ms)
		}
	})
	out.layers["weightplane.round_delta_p50_ms"] = median(deltaMS)
	out.layers["weightplane.round_dense_p50_ms"] = median(denseMS)
	out.unloadedMS = mean(allMS)
	if st := out.spans["weightplane.plan"]; st != nil {
		out.layers["weightplane.plan_us"] = st.MeanUS
	}
	if st := out.spans["broker.send"]; st != nil {
		out.layers["broker.send_us"] = st.MeanUS
	}
	return out
}

// stagedDownlink replays the schedule through a standalone planner to
// collect the bodies the workload sends, in the mix it sends them, then
// stages every channel layer on them plus the delta codec itself.
func stagedDownlink(inputs any, stageBudget time.Duration) (map[string]float64, error) {
	ws := inputs.(*weightSchedule)
	planner := weightplane.New(weightplane.Config{Enabled: true, QuantBits: serialize.QuantInt8})
	names := make([]string, len(downlinkDsts))
	for i, spec := range downlinkDsts {
		names[i] = spec.name
	}
	cur := append([]float32(nil), ws.initial...)
	var bodies []any
	var pairs [][2][]float32 // (base, next) vectors for the codec stages
	for v := int64(1); v <= 2*resyncEvery; v++ {
		prev := append([]float32(nil), cur...)
		ws.apply(cur, v)
		if v%resyncEvery == 0 {
			planner.MarkStale(names[len(names)-1])
		}
		for _, o := range planner.Plan(cur, v, names, nil) {
			bodies = append(bodies, o.Body)
		}
		if v <= 4 {
			pairs = append(pairs, [2][]float32{prev, append([]float32(nil), cur...)})
		}
	}
	out, err := stagedChannel(bodies, serialize.NewCompressor(), stageBudget)
	if err != nil {
		return nil, err
	}
	var stageErr error
	deltas := make([]*message.WeightsDeltaPayload, len(pairs))
	encode := func(i int) {
		dp, err := serialize.EncodeDelta(pairs[i][0], pairs[i][1], int64(i), int64(i+1), serialize.QuantInt8)
		if err != nil && stageErr == nil {
			stageErr = err
		}
		deltas[i] = dp
	}
	for i := range pairs {
		encode(i) // every delta exists before the apply stage, however short the budget
	}
	out["serialize.encode_delta_us"] = timeOp(len(pairs), stageBudget, encode) / 1e3
	if stageErr != nil {
		return nil, fmt.Errorf("staged delta codec: %w", stageErr)
	}
	out["serialize.apply_delta_us"] = timeOp(len(pairs), stageBudget, func(i int) {
		if _, err := serialize.ApplyDelta(pairs[i][0], deltas[i]); err != nil && stageErr == nil {
			stageErr = err
		}
	}) / 1e3
	if stageErr != nil {
		return nil, fmt.Errorf("staged delta codec: %w", stageErr)
	}
	return out, nil
}

// downlinkBudget lays the mean cost of one round's layers next to the mean
// round latency. The staged figures are means over the bodies the workload
// sends (about one dense snapshot per ten deltas), as the latency is.
func downlinkBudget(l map[string]float64) []budgetRow {
	return []budgetRow{
		{"weightplane", l["weightplane.plan_us"] / 1e3, "Planner.Plan, delta encoding included"},
		{"serialize", (l["serialize.marshal_us"] + l["serialize.unmarshal_us"] + l["serialize.apply_delta_us"]) / 1e3, "marshal + unmarshal + apply delta at the destination"},
		{"lz4", (l["lz4.pack_us"] + l["lz4.unpack_us"]) / 1e3, "Compressor.Pack + Unpack (dense snapshots do not shrink)"},
		{"objectstore", (l["objectstore.put_ns"] + 2*l["objectstore.get_release_r4_ns"]) / 1e6, "source put; get + release on a multi-reference object at both ends"},
		{"queue", 2 * l["queue.handoff_ns"] / 1e6, "sender → router, router → forwarder"},
		{"fabric", l["fabric.hop_us"] / 1e3, "Forward → remote header popped, for the off-machine destinations"},
	}
}
