package broker

import (
	"fmt"
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/serialize"
)

// starCluster builds a learner machine plus n explorer machines, each
// hosting two explorers, returning the learner port and the explorer ports.
func starCluster(t *testing.T, n int) (*Cluster, *Port, []*Port) {
	t.Helper()
	net := netsim.New(netsim.Config{Bandwidth: 1 << 30, Latency: 0, TimeScale: 1})
	c := NewCluster(net)
	t.Cleanup(c.Stop)
	if _, err := c.AddBrokerCfg(0, Config{}); err != nil {
		t.Fatalf("AddBrokerCfg: %v", err)
	}
	learner, err := c.Register(0, "learner")
	if err != nil {
		t.Fatalf("Register learner: %v", err)
	}
	var explorers []*Port
	for m := 1; m <= n; m++ {
		if _, err := c.AddBrokerCfg(m, Config{}); err != nil {
			t.Fatalf("AddBrokerCfg %d: %v", m, err)
		}
		for k := 0; k < 2; k++ {
			p, err := c.Register(m, fmt.Sprintf("explorer-%d", len(explorers)))
			if err != nil {
				t.Fatalf("Register explorer-%d: %v", len(explorers), err)
			}
			explorers = append(explorers, p)
		}
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

// TestWeightsBroadcastStar: a weights broadcast (dense, then a delta)
// to explorers on several machines leaves the root as one frame per remote
// machine, each machine injects it once for its own two clients, every
// explorer receives it with its version headers intact, and the refcount
// ledger balances everywhere.
func TestWeightsBroadcastStar(t *testing.T) {
	const n = 3
	c, learner, explorers := starCluster(t, n)
	dst := make([]string, len(explorers))
	for i := range dst {
		dst[i] = fmt.Sprintf("explorer-%d", i)
	}
	dense := message.New(message.TypeWeights, "learner", dst,
		&message.WeightsPayload{Version: 7, Data: make([]float32, 16)})
	dense.Header.WeightsVersion = 7
	delta := message.New(message.TypeWeightsDelta, "learner", dst, &message.WeightsDeltaPayload{
		Version: 8, BaseVersion: 7, NumParams: 16, Indices: []uint32{1}, Values: []float32{0.5}})
	delta.Header.WeightsVersion, delta.Header.BaseVersion = 8, 7
	for _, m := range []*message.Message{dense, delta} {
		if err := learner.Send(m); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for i, p := range explorers {
		for _, want := range []struct{ version, base int64 }{{7, 0}, {8, 7}} {
			got, err := p.Recv()
			if err != nil {
				t.Fatalf("explorer-%d Recv: %v", i, err)
			}
			if got.Header.WeightsVersion != want.version || got.Header.BaseVersion != want.base {
				t.Fatalf("explorer-%d header = v%d base %d, want %+v", i,
					got.Header.WeightsVersion, got.Header.BaseVersion, want)
			}
		}
	}
	if fwd := forwardedBy(t, c.Broker(0), 2*n); fwd != 2*n {
		t.Fatalf("root forwarded %d, want %d (one frame per remote machine per broadcast)", fwd, 2*n)
	}
	for m := 0; m <= n; m++ {
		snap := c.Broker(m).Metrics()
		if m > 0 && snap.BodiesInjected != 2 {
			t.Fatalf("machine %d injected %d bodies, want 2", m, snap.BodiesInjected)
		}
		if d := snap.Drops.Total(); d != 0 {
			t.Fatalf("machine %d dropped %d references: %+v", m, d, snap.Drops)
		}
		waitDrained(t, c.Broker(m))
	}
}

// TestInjectDropsNameLocatedElsewhere: every frame makes one hop, so a name
// the locator places on another machine when the frame arrives (re-placed
// mid-flight) counts as an unknown destination and its reference is
// released, while the local name still receives the body.
func TestInjectDropsNameLocatedElsewhere(t *testing.T) {
	c, _, explorers := starCluster(t, 1)
	b := c.Broker(1)
	h := &message.Header{ID: 1, Type: message.TypeWeights, Src: "learner", Dst: []string{"explorer-0", "learner"}}
	if err := b.InjectRemote(h, packBody(t, &message.WeightsPayload{Version: 3, Data: []float32{1}})); err != nil {
		t.Fatalf("InjectRemote: %v", err)
	}
	if _, err := explorers[0].Recv(); err != nil {
		t.Fatalf("explorer-0 Recv: %v", err)
	}
	if d := b.Metrics().Drops; d.UnknownDestination != 1 || d.Total() != 1 {
		t.Fatalf("drops = %+v, want one UnknownDestination", d)
	}
	waitDrained(t, b)
	if fwd := b.Metrics().BodiesForwarded; fwd != 0 {
		t.Fatalf("machine 1 forwarded %d frames onward, want 0", fwd)
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
