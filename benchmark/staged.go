package main

import (
	"fmt"
	"runtime"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
	"xingtian/internal/objectstore"
	"xingtian/internal/queue"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// The staged replay pushes a workload's own message bodies through one layer
// at a time, on standalone instances, one call at a time from the
// benchmark's goroutine. It answers "what does this layer cost per message
// when nothing else runs" — the figures the latency budget is built from.
// Nothing here is an end-to-end number.

// maxStageBudget is how long each staged measurement repeats its inputs in a
// full-length run: long enough that the 3 ms frame-rollout stages see a few
// dozen calls. Short (test) runs scale it down.
const maxStageBudget = 250 * time.Millisecond

func stageBudgetFor(total time.Duration) time.Duration {
	if b := total / 80; b < maxStageBudget {
		return b
	}
	return maxStageBudget
}

// timeOp calls fn(i) with i cycling through 0..n-1 for about budget and
// returns the typical nanoseconds per call. Calls are timed in chunks long
// enough (about 100 us) that reading the clock does not inflate
// sub-microsecond operations, and the result is the median chunk: a stage
// lasts a fraction of a second, and on a shared host a plain mean over it is
// at the mercy of whatever the neighbours did in that fraction.
func timeOp(n int, budget time.Duration, fn func(i int)) float64 {
	next := 0
	run := func(calls int) time.Duration {
		start := time.Now()
		for c := 0; c < calls; c++ {
			fn(next)
			if next++; next == n {
				next = 0
			}
		}
		return time.Since(start)
	}
	chunk := 1
	for run(chunk) < 100*time.Microsecond && chunk < 1<<16 {
		chunk *= 2
	}
	var perCall []float64
	for start := time.Now(); len(perCall) == 0 || time.Since(start) < budget; {
		perCall = append(perCall, float64(run(chunk).Nanoseconds())/float64(chunk))
	}
	return median(perCall)
}

func typeOf(body any) message.Type {
	switch body.(type) {
	case *rollout.Batch:
		return message.TypeRollout
	case *message.WeightsDeltaPayload:
		return message.TypeWeightsDelta
	default:
		return message.TypeWeights
	}
}

// stagedChannel measures every channel layer on bodies, the message bodies a
// workload sends in the mix it sends them, with comp as the workload's
// compressor.
func stagedChannel(bodies []any, comp serialize.Compressor, stageBudget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	n := len(bodies)
	raws := make([][]byte, n)
	frameds := make([][]byte, n)
	var rawTotal, framedTotal, attempted, shrank int
	for i, b := range bodies {
		raw, err := serialize.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("staged marshal: %w", err)
		}
		raws[i] = raw
		var compressed bool
		frameds[i], compressed = comp.Pack(raw)
		rawTotal += len(raw)
		framedTotal += len(frameds[i])
		if comp.Threshold > 0 && len(raw) >= comp.Threshold {
			attempted++
			if compressed {
				shrank++
			}
		}
	}
	out["serialize.raw_bytes_per_msg"] = float64(rawTotal) / float64(n)
	out["lz4.ratio"] = float64(rawTotal) / float64(framedTotal)
	if attempted > 0 {
		out["lz4.useful_share"] = float64(shrank) / float64(attempted)
	}

	// serialize and lz4, through the calls Port.Send and Port.Recv make.
	var stageErr error
	note := func(err error) {
		if err != nil && stageErr == nil {
			stageErr = err
		}
	}
	out["serialize.marshal_us"] = timeOp(n, stageBudget, func(i int) {
		buf, err := serialize.MarshalPooled(bodies[i])
		note(err)
		serialize.FreeBuf(buf)
	}) / 1e3
	out["lz4.pack_us"] = timeOp(n, stageBudget, func(i int) { comp.Pack(raws[i]) }) / 1e3
	out["lz4.unpack_us"] = timeOp(n, stageBudget, func(i int) {
		_, err := comp.Unpack(frameds[i])
		note(err)
	}) / 1e3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0 // timeOp's own slices add a handful of allocations, negligible per call
	out["serialize.unmarshal_us"] = timeOp(n, stageBudget, func(i int) {
		_, err := serialize.Unmarshal(raws[i])
		note(err)
		calls++
	}) / 1e3
	runtime.ReadMemStats(&after)
	out["serialize.unmarshal_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(calls)

	// objectstore: one reference (unicast) and four (a weights broadcast).
	store := objectstore.New()
	ids := make([]objectstore.ID, n)
	for _, refs := range []int{1, 4} {
		var puts, getReleases []float64 // ns per call, one entry per round
		for start := time.Now(); len(puts) == 0 || time.Since(start) < stageBudget; {
			t0 := time.Now()
			for i := range ids {
				ids[i] = store.Put(frameds[i], refs)
			}
			t1 := time.Now()
			for _, id := range ids {
				for r := 0; r < refs; r++ {
					_, err := store.Get(id)
					note(err)
					note(store.Release(id))
				}
			}
			puts = append(puts, float64(t1.Sub(t0).Nanoseconds())/float64(n))
			getReleases = append(getReleases, float64(time.Since(t1).Nanoseconds())/float64(n*refs))
		}
		if refs == 1 {
			out["objectstore.put_ns"] = median(puts)
			out["objectstore.get_release_ns"] = median(getReleases)
		} else {
			out["objectstore.get_release_r4_ns"] = median(getReleases)
		}
	}

	out["queue.handoff_ns"] = stagedHandoff(stageBudget)

	// broker.materialize: what Recv does after popping a header.
	materializeNS := timeMaterialize(store, comp, frameds, stageBudget, note)
	out["broker.materialize_us"] = materializeNS / 1e3

	// broker.local_transit: Send returned → Recv returned on one broker,
	// minus materialize: the header queue, the router and the ID queue.
	b := broker.New(broker.Config{Compressor: comp})
	src, err := b.Register("stage-src")
	note(err)
	dst, err := b.Register("stage-dst")
	note(err)
	if stageErr != nil {
		b.Stop()
		return nil, fmt.Errorf("staged replay: %w", stageErr)
	}
	var transits []float64
	for start, i := time.Now(), 0; len(transits) == 0 || time.Since(start) < stageBudget; i++ {
		body := bodies[i%n]
		m := message.New(typeOf(body), "stage-src", []string{"stage-dst"}, body)
		note(src.Send(m))
		t0 := time.Now()
		_, err := dst.Recv()
		transits = append(transits, float64(time.Since(t0).Nanoseconds()))
		note(err)
	}
	b.Stop()
	out["broker.local_transit_us"] = clampPositive(median(transits)-materializeNS) / 1e3

	// fabric: Forward on a two-machine pair, and the hop from Forward's
	// start until the remote receiver holds the decoded message.
	g, err := newGrid(2, comp.Threshold > 0)
	if err != nil {
		return nil, fmt.Errorf("staged fabric pair: %w", err)
	}
	defer g.Stop()
	sink, err := g.Register(0, "stage-sink")
	if err != nil {
		return nil, fmt.Errorf("staged fabric pair: %w", err)
	}
	node := g.Node(1)
	var forwards, hops []float64
	for start, i := time.Now(), 0; len(hops) == 0 || time.Since(start) < stageBudget; i++ {
		h := &message.Header{
			ID: uint64(i + 1), Type: typeOf(bodies[i%n]), Src: "stage-src",
			Dst: []string{"stage-sink"}, BodySize: len(frameds[i%n]),
			CreatedNanos: time.Now().UnixNano(),
		}
		t0 := time.Now()
		note(node.Forward(1, 0, h, frameds[i%n]))
		t1 := time.Now()
		_, err := sink.Recv()
		hops = append(hops, float64(time.Since(t0).Nanoseconds()))
		forwards = append(forwards, float64(t1.Sub(t0).Nanoseconds()))
		note(err)
	}
	out["fabric.forward_us"] = median(forwards) / 1e3
	out["fabric.hop_us"] = clampPositive(median(hops)-materializeNS) / 1e3

	if stageErr != nil {
		return nil, fmt.Errorf("staged replay: %w", stageErr)
	}
	return out, nil
}

func clampPositive(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// timeMaterialize measures Get + Unpack + Unmarshal + Release per body, the
// sequence Port.Recv runs once it has popped a header.
func timeMaterialize(store *objectstore.Store, comp serialize.Compressor, frameds [][]byte, stageBudget time.Duration, note func(error)) float64 {
	ids := make([]objectstore.ID, len(frameds))
	var perCall []float64
	for start := time.Now(); len(perCall) == 0 || time.Since(start) < stageBudget; {
		for i := range ids {
			ids[i] = store.Put(frameds[i], 1)
		}
		for _, id := range ids {
			t0 := time.Now()
			framed, err := store.Get(id)
			note(err)
			raw, err := comp.Unpack(framed)
			note(err)
			_, err = serialize.Unmarshal(raw)
			note(err)
			note(store.Release(id))
			perCall = append(perCall, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return median(perCall)
}

// stagedHandoff measures one blocking Put→Get hand-off between two
// goroutines: half a ping-pong round trip over two queues.
func stagedHandoff(stageBudget time.Duration) float64 {
	ping, pong := queue.New[int](), queue.New[int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, err := ping.Get()
			if err != nil {
				return
			}
			if pong.Put(v) != nil {
				return
			}
		}
	}()
	ns := timeOp(1, stageBudget, func(int) {
		// Errors are impossible here: neither queue closes before the loop ends.
		_ = ping.Put(1)
		_, _ = pong.Get()
	})
	ping.Close()
	<-done
	pong.Close()
	return ns / 2
}
