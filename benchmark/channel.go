package main

import (
	"xingtian/internal/broker"
	"xingtian/internal/fabric"
	"xingtian/internal/serialize"
)

// newGrid builds the production transport every workload runs on: one broker
// and one fabric node per machine, meshed over loopback TCP, raw Go codec
// (no emulated plane delay), LZ4 above the paper's 1 MB threshold when
// compress is set.
func newGrid(machines int, compress bool) (*fabric.Grid, error) {
	opts := fabric.GridOptions{}
	if compress {
		opts.Compressor = serialize.NewCompressor()
	}
	return fabric.NewGrid(machines, opts)
}

// wireBytesSent sums the bytes every node of a grid has written.
func wireBytesSent(g *fabric.Grid) int64 {
	var n int64
	for m := 0; m < g.Machines(); m++ {
		n += g.Node(m).Metrics().BytesSent
	}
	return n
}

// gauges tracks live high-water marks the layers only expose as
// instantaneous values; the traced pass polls them.
type gauges struct {
	queueDepthMax int
}

func (g *gauges) observe(h broker.ClusterHealth) {
	for _, b := range h.Brokers {
		depth := b.HeaderQueueDepth
		for _, d := range b.IDQueueDepths {
			depth += d
		}
		for _, d := range b.ForwarderDepths {
			depth += d
		}
		if depth > g.queueDepthMax {
			g.queueDepthMax = depth
		}
	}
}

// channelLayers turns the layers' own public snapshots into per-layer
// figures. pre is taken while the deployment is still live (drop taxonomy,
// traffic counters), post after Stop (the leak ledger). Counters are
// cumulative since set-up, warm-up included.
func channelLayers(pre, post broker.ClusterHealth) map[string]float64 {
	out := make(map[string]float64)
	var routed, forwarded, drops, bodyBytes int64
	var busiest broker.LatencySummary
	var peakLive int64
	for _, b := range pre.Brokers {
		routed += b.HeadersRouted
		forwarded += b.BodiesForwarded
		bodyBytes += b.BytesForwarded
		drops += b.Drops.Total()
		if b.Delivery.Count > busiest.Count {
			busiest = b.Delivery
		}
		if b.Store.PeakLiveBytes > peakLive {
			peakLive = b.Store.PeakLiveBytes
		}
	}
	out["broker.routed"] = float64(routed)
	out["broker.forwarded"] = float64(forwarded)
	out["broker.drops"] = float64(drops)
	out["broker.delivery_p50_ms"] = busiest.P50.Seconds() * 1e3
	out["broker.delivery_p99_ms"] = busiest.P99.Seconds() * 1e3
	out["objectstore.peak_live_mb"] = float64(peakLive) / (1 << 20)

	var releaseErrors int64
	for _, b := range post.Brokers {
		releaseErrors += b.ReleaseErrors
	}
	out["objectstore.leaked_at_stop"] = float64(post.TotalLeaked())
	out["objectstore.release_errors"] = float64(releaseErrors)

	var w broker.WireMetrics
	for _, n := range pre.Wire {
		w.FramesSent += n.FramesSent
		w.BytesSent += n.BytesSent
		w.AcksSent += n.AcksSent
		w.CreditStalls += n.CreditStalls
		w.Reconnects += n.Reconnects
		w.CorruptFrames += n.CorruptFrames
	}
	out["fabric.frames_sent"] = float64(w.FramesSent)
	out["fabric.bytes_sent"] = float64(w.BytesSent)
	out["fabric.acks_sent"] = float64(w.AcksSent)
	out["fabric.credit_stalls"] = float64(w.CreditStalls)
	out["fabric.reconnects"] = float64(w.Reconnects)
	out["fabric.corrupt_frames"] = float64(w.CorruptFrames)
	if bodyBytes > 0 {
		out["fabric.overhead_ratio"] = float64(w.BytesSent) / float64(bodyBytes)
	}
	return out
}
