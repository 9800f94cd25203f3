package fabric

import (
	"fmt"
	"testing"
	"time"

	"xingtian/internal/message"
)

// TestGridWeightsStarOverTCP: a weights broadcast from machine 0 to
// explorers on machines 1–4 crosses the real-TCP mesh as a star — one frame
// per remote machine — reaching every leaf, with nothing left in any store.
func TestGridWeightsStarOverTCP(t *testing.T) {
	const n = 5 // machines 1..4 host explorers, machine 0 the learner
	g, err := NewGrid(n, GridOptions{})
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
	}

	// A broker counts a forward once Forward has returned, which can be
	// after the leaves received the body, so wait for the count to reach its
	// target before checking that it stops there.
	waitFor(t, 5*time.Second, "the root's forwards to be counted", func() bool {
		return g.Broker(0).Metrics().BodiesForwarded >= n-1
	})
	if fwd := g.Broker(0).Metrics().BodiesForwarded; fwd != n-1 {
		t.Fatalf("root forwarded %d frames, want %d (one per remote machine)", fwd, n-1)
	}
	for i := 1; i < n; i++ {
		if fwd := g.Broker(i).Metrics().BodiesForwarded; fwd != 0 {
			t.Fatalf("machine %d forwarded %d frames onward, want 0", i, fwd)
		}
	}
	g.Stop()
	for i := 0; i < n; i++ {
		if err := g.Broker(i).VerifyDrained(); err != nil {
			t.Fatalf("machine %d not drained: %v", i, err)
		}
	}
}

// portRecv pairs a registered name with its blocking receive.
type portRecv struct {
	name string
	recv func() (*message.Message, error)
}
