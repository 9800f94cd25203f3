package fabric

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
)

// killNthWrite wraps connections so that one single write — the nth across
// all wrapped conns — fails and kills its connection, simulating a link
// reset at a deterministic point.
type killNthWrite struct {
	n      int64
	writes atomic.Int64
}

type killConn struct {
	net.Conn
	k *killNthWrite
}

func (k *killNthWrite) wrap(c net.Conn) net.Conn { return &killConn{Conn: c, k: k} }

func (c *killConn) Write(p []byte) (int, error) {
	if c.k.writes.Add(1) == c.k.n {
		_ = c.Conn.Close()
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnectReplacesExistingPeer: re-dialing an already-connected machine
// must close and replace the old link. Before the fix the old socket and its
// read loop leaked, and Stop hung on the orphaned loop.
func TestConnectReplacesExistingPeer(t *testing.T) {
	node0, err := Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 0: %v", err)
	}
	node1, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 1: %v", err)
	}
	defer node1.Stop()

	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("re-Connect: %v", err)
	}
	if got := node0.PeerState(1); got != "connected" {
		t.Fatalf("PeerState = %q after re-Connect", got)
	}
	h := &message.Header{ID: 1, Type: message.TypeDummy, Src: "a", Dst: []string{"b"}}
	if err := node0.Forward(0, 1, h, []byte("after-replace")); err != nil {
		t.Fatalf("Forward on replacement conn: %v", err)
	}
	waitFor(t, 2*time.Second, "frame on replacement conn", func() bool {
		return node1.Metrics().FramesReceived == 1
	})

	// With the orphaned read loop gone, Stop must return promptly even
	// while the peer node is still up.
	done := make(chan struct{})
	go func() {
		node0.Stop()
		close(done)
	}()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		t.Fatal("Stop hung on the replaced connection's read loop")
	}
}

// TestWriteFailureRetriesAfterReconnect: a frame whose write fails is queued,
// the peer redials, and the frame is delivered from the retry queue — the
// Forward call reports the transient with broker.ErrForwardRetrying.
func TestWriteFailureRetriesAfterReconnect(t *testing.T) {
	node0, err := Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 0: %v", err)
	}
	node1, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 1: %v", err)
	}
	defer func() {
		node0.Stop()
		node1.Stop()
	}()

	// Frame 1 = writes 1-3 (header, body, CRC). Write 4 — frame 2's header —
	// dies.
	killer := &killNthWrite{n: 4}
	node0.SetConnWrapper(killer.wrap)
	node0.SetRedialPolicy(20, time.Millisecond)
	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}

	h := &message.Header{ID: 1, Type: message.TypeDummy, Src: "a", Dst: []string{"b"}}
	if err := node0.Forward(0, 1, h, []byte("frame-1")); err != nil {
		t.Fatalf("Forward 1: %v", err)
	}
	h2 := &message.Header{ID: 2, Type: message.TypeDummy, Src: "a", Dst: []string{"b"}}
	err = node0.Forward(0, 1, h2, []byte("frame-2"))
	if !errors.Is(err, broker.ErrForwardRetrying) {
		t.Fatalf("Forward 2 = %v, want ErrForwardRetrying", err)
	}

	waitFor(t, 5*time.Second, "retried frame to arrive", func() bool {
		return node1.Metrics().FramesReceived == 2
	})
	m := node0.Metrics()
	if m.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", m.Reconnects)
	}
	if m.RetriedFrames != 1 {
		t.Fatalf("RetriedFrames = %d, want 1", m.RetriedFrames)
	}
	if m.DroppedRetry != 0 {
		t.Fatalf("DroppedRetry = %d, want 0", m.DroppedRetry)
	}
	if got := node0.PeerState(1); got != "connected" {
		t.Fatalf("PeerState = %q after reconnect", got)
	}
}

// TestPeerDownDropTaxonomy: severing the fabric link mid-run lands broker
// drops in ForwardError (transient retries are counted separately and never
// as StoreMiss) with zero leaked store refs — the drop path still releases
// every reference it owns.
func TestPeerDownDropTaxonomy(t *testing.T) {
	locator := StaticLocator{"a": 0, "b": 1}
	node0, err := Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 0: %v", err)
	}
	node1, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen 1: %v", err)
	}
	node0.SetRedialPolicy(2, time.Millisecond)
	b0 := broker.New(broker.Config{MachineID: 0, Remote: node0, Locator: locator})
	b1 := broker.New(broker.Config{MachineID: 1, Remote: node1, Locator: locator})
	node0.AttachBroker(b0)
	node1.AttachBroker(b1)
	if err := node0.Connect(1, node1.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer func() {
		b0.Stop()
		b1.Stop()
		node0.Stop()
		node1.Stop()
	}()

	a, err := b0.Register("a")
	if err != nil {
		t.Fatalf("Register a: %v", err)
	}
	bp, err := b1.Register("b")
	if err != nil {
		t.Fatalf("Register b: %v", err)
	}

	// Prove the link works, then sever it: node1 goes away entirely, so the
	// redial budget burns out and the peer goes down.
	if err := a.Send(message.New(message.TypeDummy, "a", []string{"b"},
		&message.DummyPayload{Data: []byte("pre-failure")})); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := bp.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	node1.Stop()

	// Keep sending until the broker records a permanent forward drop. Early
	// sends may land in kernel buffers or the retry queue; once the peer is
	// down every transfer is a ForwardError drop.
	payload := bytes.Repeat([]byte{7}, 2048)
	waitFor(t, 10*time.Second, "a ForwardError drop", func() bool {
		_ = a.Send(message.New(message.TypeDummy, "a", []string{"b"},
			&message.DummyPayload{Data: payload}))
		return b0.Metrics().Drops.ForwardError >= 1
	})

	m := b0.Metrics()
	if m.Drops.StoreMiss != 0 {
		t.Fatalf("StoreMiss = %d, want 0 (drops must not misclassify)", m.Drops.StoreMiss)
	}
	if got := node0.PeerState(1); got != "down" {
		t.Fatalf("PeerState = %q, want down", got)
	}
	if node0.Metrics().RedialFailures == 0 {
		t.Fatal("RedialFailures = 0, want > 0 after severing the link")
	}

	// Every dropped transfer released its ref: the store must drain clean.
	b0.Stop()
	if err := b0.VerifyDrained(); err != nil {
		t.Fatalf("VerifyDrained after forward drops: %v", err)
	}
}

// TestGridSessionSurface: the Grid serves the full transport surface —
// register, cross-machine delivery, unregister-then-reregister, health with
// wire metrics — and stops idempotently.
func TestGridSessionSurface(t *testing.T) {
	g, err := NewGrid(2, GridOptions{})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()

	a, err := g.Register(0, "a")
	if err != nil {
		t.Fatalf("Register a: %v", err)
	}
	bp, err := g.Register(1, "b")
	if err != nil {
		t.Fatalf("Register b: %v", err)
	}
	if err := a.Send(message.New(message.TypeDummy, "a", []string{"b"},
		&message.DummyPayload{Data: []byte("cross")})); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m, err := bp.Recv(); err != nil || string(m.Body.(*message.DummyPayload).Data) != "cross" {
		t.Fatalf("Recv = %v, %v", m, err)
	}

	// A name can be re-registered after Unregister (supervision relies on it).
	g.Unregister(1, "b")
	if _, err := g.Register(1, "b"); err != nil {
		t.Fatalf("re-Register after Unregister: %v", err)
	}

	h := g.Health()
	if len(h.Brokers) != 2 || len(h.Wire) != 2 {
		t.Fatalf("Health: %d brokers, %d wire entries, want 2/2", len(h.Brokers), len(h.Wire))
	}
	// The sender counts a frame after its write returns, which can be after
	// the receiver has already delivered it.
	waitFor(t, 5*time.Second, "machine 0 to count its sent frame", func() bool {
		return g.Health().Wire[0].FramesSent > 0
	})

	g.Stop()
	g.Stop() // idempotent
	for m := 0; m < 2; m++ {
		if err := g.Broker(m).VerifyDrained(); err != nil {
			t.Fatalf("machine %d not drained: %v", m, err)
		}
	}
}
