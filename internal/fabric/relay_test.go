package fabric

import (
	"fmt"
	"testing"
	"time"

	"xingtian/internal/message"
)

// TestGridRelayTreeOverTCP: a weights broadcast wider than the relay fanout
// crosses the real-TCP mesh through interior relays, reaching every leaf
// with the root forwarding only ⌈√n⌉ frames.
func TestGridRelayTreeOverTCP(t *testing.T) {
	const n = 5 // machines 1..4 host explorers, machine 0 the learner
	g, err := NewGrid(n, GridOptions{RelayFanout: 2})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()

	learner, err := g.Register(0, "learner")
	if err != nil {
		t.Fatalf("Register learner: %v", err)
	}
	ports := make([]*portRecv, 0, n-1)
	dst := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		name := fmt.Sprintf("explorer-%d", i)
		p, err := g.Register(i, name)
		if err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
		ports = append(ports, &portRecv{name: name, recv: p.Recv})
		dst = append(dst, name)
	}

	w := &message.WeightsPayload{Version: 3, Data: make([]float32, 1024)}
	m := message.New(message.TypeWeights, "learner", dst, w)
	m.Header.WeightsVersion = 3
	if err := learner.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for _, p := range ports {
		got, err := p.recv()
		if err != nil {
			t.Fatalf("%s Recv: %v", p.name, err)
		}
		if got.Body.(*message.WeightsPayload).Version != 3 {
			t.Fatalf("%s got wrong weights version", p.name)
		}
		if got.Header.RelayHops != 0 {
			t.Fatalf("%s header leaked relay budget %d", p.name, got.Header.RelayHops)
		}
	}

	// 4 remote machines, fanout 2 → 2 relay groups at the root; at least one
	// spans two machines, so some interior broker relayed onward. A broker
	// counts a forward once Forward has returned, which can be after the
	// leaves received the body, so wait for the counts to reach their target
	// before checking that they stop there.
	var relayed, expired int64
	count := func() {
		relayed, expired = 0, 0
		for i := 0; i < n; i++ {
			snap := g.Broker(i).Metrics()
			relayed += snap.BodiesRelayed
			expired += snap.Drops.RelayExpired
		}
	}
	waitFor(t, 5*time.Second, "the root's forwards and the relays to be counted", func() bool {
		count()
		return g.Broker(0).Metrics().BodiesForwarded >= 2 && relayed >= 2
	})
	count()
	root := g.Broker(0).Metrics()
	if root.BodiesForwarded != 2 {
		t.Fatalf("root forwarded %d frames, want 2 relay groups", root.BodiesForwarded)
	}
	if relayed != 2 {
		t.Fatalf("relayed bodies = %d, want 2 (4 leaves via 2 relays)", relayed)
	}
	if expired != 0 {
		t.Fatalf("relayExpired = %d, want 0", expired)
	}
}

// portRecv pairs a registered name with its blocking receive.
type portRecv struct {
	name string
	recv func() (*message.Message, error)
}
