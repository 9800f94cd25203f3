package fabric

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
)

// countWrites wraps connections and counts every Write on them.
type countWrites struct{ writes atomic.Int64 }

type countConn struct {
	net.Conn
	c *countWrites
}

func (c *countWrites) wrap(conn net.Conn) net.Conn { return &countConn{Conn: conn, c: c} }

func (c *countConn) Write(p []byte) (int, error) {
	c.c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestWireIsOneWay: the accepting side of a link only reads. Node 1 dials
// nothing, so its conn wrapper sees only the connections it accepts, and
// those must carry no write at all, however many frames arrive. The dialed
// side's reader still notices the peer going away: with no Forward issued,
// node 0's peer state leaves connected once node 1 stops.
func TestWireIsOneWay(t *testing.T) {
	node0, err := Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 0: %v", err)
	}
	node1, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 1: %v", err)
	}
	defer node0.Stop()
	defer node1.Stop()
	accepted := &countWrites{}
	node1.SetConnWrapper(accepted.wrap)
	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}

	const frames = 50
	for i := 0; i < frames; i++ {
		h := &message.Header{ID: uint64(i + 1), Type: message.TypeDummy, Src: "a", Dst: []string{"b"}}
		if err := node0.Forward(0, 1, h, make([]byte, 1500)); err != nil {
			t.Fatalf("Forward %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "every frame to arrive", func() bool {
		return node1.Metrics().FramesReceived == frames
	})
	if w := accepted.writes.Load(); w != 0 {
		t.Fatalf("node 1 wrote %d times on its accepted connections, want 0", w)
	}

	node1.Stop()
	waitFor(t, 5*time.Second, "node 0 to see the link close", func() bool {
		return node0.PeerState(1) != "connected"
	})
}

// breakWrites fails every write while broken is set and closes the conn it
// was made on, so a peer stays backing off (each redial's retry flush fails)
// until the test clears the flag.
type breakWrites struct{ broken atomic.Bool }

type breakConn struct {
	net.Conn
	b *breakWrites
}

func (b *breakWrites) wrap(conn net.Conn) net.Conn { return &breakConn{Conn: conn, b: b} }

func (c *breakConn) Write(p []byte) (int, error) {
	if c.b.broken.Load() {
		_ = c.Conn.Close()
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// newOutageLink connects node 0 to node 1 through a breakWrites link that
// redials every millisecond, and registers client "b" on node 1's broker.
func newOutageLink(t *testing.T) (*Node, *broker.Port, *breakWrites) {
	t.Helper()
	node0, err := Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 0: %v", err)
	}
	node1, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 1: %v", err)
	}
	t.Cleanup(node0.Stop)
	t.Cleanup(node1.Stop)
	b1 := broker.New(broker.Config{MachineID: 1, Locator: StaticLocator{"b": 1}})
	t.Cleanup(b1.Stop)
	node1.AttachBroker(b1)
	port, err := b1.Register("b")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	link := &breakWrites{}
	node0.SetConnWrapper(link.wrap)
	node0.SetRedialPolicy(30, time.Millisecond)
	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return node0, port, link
}

// TestRetryQueueKeepsNewestFrames: an outage longer than the retry queue
// keeps its newest frames. Forward 8 more frames than the queue holds to a
// backing-off peer; every Forward is accepted as a retry, the 8 oldest are
// evicted and counted, and after the redial the receiver gets the newest
// retryQueueCap frames in order, the last one included.
func TestRetryQueueKeepsNewestFrames(t *testing.T) {
	node0, port, link := newOutageLink(t)

	const evicted = 8
	const frames = retryQueueCap + evicted
	link.broken.Store(true)
	for i := 0; i < frames; i++ {
		h := &message.Header{ID: uint64(i + 1), Type: message.TypeDummy, Src: "a", Dst: []string{"b"}, Round: int32(i)}
		if err := node0.Forward(0, 1, h, []byte{byte(i)}); !errors.Is(err, broker.ErrForwardRetrying) {
			t.Fatalf("Forward %d = %v, want ErrForwardRetrying", i, err)
		}
	}
	link.broken.Store(false)

	waitFor(t, 10*time.Second, "the retried frames to arrive", func() bool {
		return port.Pending() == retryQueueCap
	})
	for i := evicted; i < frames; i++ {
		h, err := port.NextHeader(false)
		if err != nil {
			t.Fatalf("NextHeader for frame %d: %v", i, err)
		}
		if h.Round != int32(i) {
			t.Fatalf("got frame %d, want %d: the queue must keep the newest frames in order", h.Round, i)
		}
		port.Discard(h)
	}
	// The sender counts the flushed frames after its write returns, which
	// can be after the receiver has already queued them.
	waitFor(t, 5*time.Second, "the flush to be counted", func() bool {
		return node0.Metrics().RetriedFrames == retryQueueCap
	})
	if m := node0.Metrics(); m.DroppedRetry != evicted {
		t.Fatalf("DroppedRetry = %d, want %d", m.DroppedRetry, evicted)
	}
}

// TestRetryQueueKeepsWeightsFrames: weights are latest-wins in the retry
// queue and outlast data. During an outage node 0 queues a weights frame, a
// newer one from the same source to the same destination, one from another
// source, then 40 rollout frames. The newer weights frame replaces the older
// (superseded, not dropped); the queue, full, evicts the 10 oldest rollouts
// and never a weights frame; after the redial both weights frames arrive,
// then the newest 30 rollouts in order.
func TestRetryQueueKeepsWeightsFrames(t *testing.T) {
	node0, port, link := newOutageLink(t)
	link.broken.Store(true)
	forward := func(typ message.Type, src string, round int) {
		t.Helper()
		h := &message.Header{ID: uint64(round + 1), Type: typ, Src: src, Dst: []string{"b"}, Round: int32(round)}
		if err := node0.Forward(0, 1, h, []byte{byte(round)}); !errors.Is(err, broker.ErrForwardRetrying) {
			t.Fatalf("Forward %d = %v, want ErrForwardRetrying", round, err)
		}
	}
	forward(message.TypeWeights, "learner", 100)
	forward(message.TypeWeightsDelta, "learner", 101)
	forward(message.TypeWeights, "broadcaster", 102)
	const rollouts = 40
	for i := 0; i < rollouts; i++ {
		forward(message.TypeRollout, "a", i)
	}
	link.broken.Store(false)

	waitFor(t, 10*time.Second, "the retried frames to arrive", func() bool {
		return port.Pending() == retryQueueCap
	})
	want := []int32{101, 102}
	for i := rollouts - (retryQueueCap - 2); i < rollouts; i++ {
		want = append(want, int32(i))
	}
	for _, round := range want {
		h, err := port.NextHeader(false)
		if err != nil {
			t.Fatalf("NextHeader for frame %d: %v", round, err)
		}
		if h.Round != round {
			t.Fatalf("got frame %d, want %d", h.Round, round)
		}
		port.Discard(h)
	}
	waitFor(t, 5*time.Second, "the flush to be counted", func() bool {
		return node0.Metrics().RetriedFrames == retryQueueCap
	})
	if m := node0.Metrics(); m.DroppedRetry != 10 || m.SupersededRetry != 1 {
		t.Fatalf("DroppedRetry = %d, SupersededRetry = %d, want 10 and 1", m.DroppedRetry, m.SupersededRetry)
	}
}
