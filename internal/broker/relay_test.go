package broker

import (
	"fmt"
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/serialize"
)

// treeCluster builds a learner machine plus n explorer machines with the
// given relay fanout, returning the learner port and the explorer ports.
func treeCluster(t *testing.T, n, fanout int) (*Cluster, *Port, []*Port) {
	t.Helper()
	net := netsim.New(netsim.Config{Bandwidth: 1 << 30, Latency: 0, TimeScale: 1})
	c := NewCluster(net)
	t.Cleanup(c.Stop)
	if _, err := c.AddBrokerCfg(0, Config{RelayFanout: fanout}); err != nil {
		t.Fatalf("AddBrokerCfg: %v", err)
	}
	learner, err := c.Register(0, "learner")
	if err != nil {
		t.Fatalf("Register learner: %v", err)
	}
	explorers := make([]*Port, n)
	for i := 0; i < n; i++ {
		if _, err := c.AddBrokerCfg(i+1, Config{RelayFanout: fanout}); err != nil {
			t.Fatalf("AddBrokerCfg %d: %v", i+1, err)
		}
		p, err := c.Register(i+1, fmt.Sprintf("explorer-%d", i))
		if err != nil {
			t.Fatalf("Register explorer-%d: %v", i, err)
		}
		explorers[i] = p
	}
	return c, learner, explorers
}

// forwardedBy returns b's BodiesForwarded once it has reached want. A
// forwarder counts a transfer (and releases its reference) after Forward
// returns, which can be after the far side has already received the body.
func forwardedBy(t *testing.T, b *Broker, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		fwd := b.Metrics().BodiesForwarded
		if fwd >= want || time.Now().After(deadline) {
			return fwd
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelayTreeDeliversToAllLeaves: a weights broadcast wider than the relay
// fanout reaches every explorer exactly once, with root egress cut to the
// number of relay groups and the refcount ledger balanced everywhere.
func TestRelayTreeDeliversToAllLeaves(t *testing.T) {
	const n = 9
	c, learner, explorers := treeCluster(t, n, 2)
	dst := make([]string, n)
	for i := range dst {
		dst[i] = fmt.Sprintf("explorer-%d", i)
	}
	w := &message.WeightsPayload{Version: 5, Data: make([]float32, 256)}
	m := message.New(message.TypeWeights, "learner", dst, w)
	m.Header.WeightsVersion = 5
	if err := learner.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i, p := range explorers {
		got, err := p.Recv()
		if err != nil {
			t.Fatalf("explorer-%d Recv: %v", i, err)
		}
		if got.Body.(*message.WeightsPayload).Version != 5 {
			t.Fatalf("explorer-%d got wrong version", i)
		}
		if got.Header.WeightsVersion != 5 {
			t.Fatalf("explorer-%d header version = %d", i, got.Header.WeightsVersion)
		}
	}
	// Root sent ⌈√9⌉ = 3 frames instead of 9.
	if fwd := forwardedBy(t, c.Broker(0), 3); fwd != 3 {
		t.Fatalf("root forwarded %d frames, want 3 relay groups", fwd)
	}
	// Some interior machine re-forwarded the frame onward.
	var relayed, relayExpired, privDrops int64
	for i := 0; i <= n; i++ {
		snap := c.Broker(i).Metrics()
		relayed += snap.BodiesRelayed
		relayExpired += snap.Drops.RelayExpired
		privDrops += snap.Drops.Total() - snap.Drops.ShedOldest - snap.Drops.StoreBudget
	}
	if relayed != n-3 {
		t.Fatalf("relayed bodies = %d, want %d (leaves minus relays)", relayed, n-3)
	}
	if relayExpired != 0 || privDrops != 0 {
		t.Fatalf("relayExpired=%d privileged drops=%d; tree must lose nothing", relayExpired, privDrops)
	}
	for i := 0; i <= n; i++ {
		waitDrained(t, c.Broker(i))
	}
}

// TestRelayStarBelowFanout: broadcasts at or under the fanout threshold keep
// plain star routing (no relayed bodies anywhere).
func TestRelayStarBelowFanout(t *testing.T) {
	const n = 3
	c, learner, explorers := treeCluster(t, n, 4)
	dst := []string{"explorer-0", "explorer-1", "explorer-2"}
	w := &message.WeightsPayload{Version: 1, Data: make([]float32, 16)}
	if err := learner.Send(message.New(message.TypeWeights, "learner", dst, w)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i, p := range explorers {
		if _, err := p.Recv(); err != nil {
			t.Fatalf("explorer-%d Recv: %v", i, err)
		}
	}
	if fwd := forwardedBy(t, c.Broker(0), n); fwd != n {
		t.Fatalf("root forwarded %d, want %d (star)", fwd, n)
	}
	for i := 0; i <= n; i++ {
		if r := c.Broker(i).Metrics().BodiesRelayed; r != 0 {
			t.Fatalf("machine %d relayed %d bodies below fanout", i, r)
		}
	}
}

// TestRelayIgnoresDroppableTraffic: rollout-class fan-out is never
// tree-routed even when wider than the fanout.
func TestRelayIgnoresDroppableTraffic(t *testing.T) {
	const n = 5
	c, learner, explorers := treeCluster(t, n, 2)
	dst := make([]string, n)
	for i := range dst {
		dst[i] = fmt.Sprintf("explorer-%d", i)
	}
	if err := learner.Send(message.New(message.TypeStats, "learner", dst,
		&message.StatsPayload{Node: "learner"})); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i, p := range explorers {
		if _, err := p.Recv(); err != nil {
			t.Fatalf("explorer-%d Recv: %v", i, err)
		}
	}
	if fwd := forwardedBy(t, c.Broker(0), n); fwd != n {
		t.Fatalf("droppable broadcast forwarded %d frames, want star %d", fwd, n)
	}
}

// TestRelayTreeWeightsDelta: the delta payload type rides the tree too, and
// the BaseVersion/RelayHops header fields survive the hop.
func TestRelayTreeWeightsDelta(t *testing.T) {
	const n = 6
	_, learner, explorers := treeCluster(t, n, 2)
	dst := make([]string, n)
	for i := range dst {
		dst[i] = fmt.Sprintf("explorer-%d", i)
	}
	d := &message.WeightsDeltaPayload{Version: 8, BaseVersion: 7, NumParams: 4,
		Indices: []uint32{1}, Values: []float32{0.5}}
	m := message.New(message.TypeWeightsDelta, "learner", dst, d)
	m.Header.WeightsVersion = 8
	m.Header.BaseVersion = 7
	if err := learner.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i, p := range explorers {
		got, err := p.Recv()
		if err != nil {
			t.Fatalf("explorer-%d Recv: %v", i, err)
		}
		body := got.Body.(*message.WeightsDeltaPayload)
		if body.Version != 8 || body.BaseVersion != 7 || body.Entries() != 1 {
			t.Fatalf("explorer-%d delta = %+v", i, body)
		}
		if got.Header.BaseVersion != 7 {
			t.Fatalf("explorer-%d header base = %d", i, got.Header.BaseVersion)
		}
		if got.Header.RelayHops != 0 {
			t.Fatalf("explorer-%d header leaked relay budget %d", i, got.Header.RelayHops)
		}
	}
}

// TestAckedWeightsTracking: rollout headers carry the explorer's weights
// version; the learner-side broker ledger records the latest, both for
// local sends and cross-machine injections, and keeps the last value (not
// the max) so restarts are visible.
func TestAckedWeightsTracking(t *testing.T) {
	c := fastCluster(t)
	if _, err := c.AddBroker(0, serialize.Compressor{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBroker(1, serialize.Compressor{}); err != nil {
		t.Fatal(err)
	}
	learner, err := c.Register(0, "learner")
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.Register(0, "explorer-local")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Register(1, "explorer-remote")
	if err != nil {
		t.Fatal(err)
	}
	send := func(p *Port, src string, version int64) {
		t.Helper()
		b := &message.RolloutBody{ExplorerID: 0, WeightsVersion: version}
		m := message.New(message.TypeRollout, src, []string{"learner"}, b)
		m.Header.WeightsVersion = version
		if err := p.Send(m); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, err := learner.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	send(local, "explorer-local", 3)
	send(remote, "explorer-remote", 4)
	acked := learner.AckedWeights()
	if acked["explorer-local"] != 3 || acked["explorer-remote"] != 4 {
		t.Fatalf("acked = %v, want local=3 remote=4", acked)
	}
	// Regression (restart) is preserved, not masked by a max.
	send(remote, "explorer-remote", 0)
	if got := learner.AckedWeights()["explorer-remote"]; got != 0 {
		t.Fatalf("acked after regression = %d, want 0", got)
	}
}
