// Package fabric implements the real inter-machine data fabric of Fig. 2(b)
// over TCP: brokers on different machines exchange framed messages through
// persistent connections. netsim models this fabric for experiments; this
// package is the production code path, exercised over loopback in the
// integration tests and by examples/distributed.
//
// Wire format per message: a 4-byte big-endian frame length, a 4-byte
// big-endian header length, the gob-encoded header, the framed body bytes,
// and a 4-byte big-endian CRC32C trailer over header+body. The receiver
// verifies the checksum before the header is decoded: a corrupt frame never
// reaches serialize — the connection is torn down into the redial path and
// the event is counted as Metrics.CorruptFrames.
//
// The wire is one-way: a frame is one vectored write on the dialed side and
// one read on the accepted side, with no reply. Bytes in flight between two
// machines are bounded by TCP's own window, the explorers' in-flight credit
// and the capped retry queue below.
//
// # Fault tolerance
//
// Each dialed peer runs a small connection state machine: connected →
// backing-off → down. A write or read failure moves the peer to backing-off
// and starts a redial loop with exponential backoff; frames that fail
// mid-flight (and frames forwarded while backing off) are copied into a
// small bounded per-peer retry queue and written once after the reconnect,
// so a transient link loss retries rather than silently drops. A full queue
// evicts its oldest frame to take the newest, so an outage keeps the latest
// traffic, the newest weights among it. When the redial budget is exhausted
// the peer goes down permanently: queued frames are dropped, and further
// Forwards fail fast. Transient accepts are reported to the broker as
// ErrForwardRetrying so its drop taxonomy distinguishes retried transfers
// from permanent drops.
//
// Delivery semantics across a reconnect are at-most-once: a frame accepted
// for retry is written exactly once after the redial succeeds, but frames
// already on the wire when the link died may be lost, and the receiver never
// sees duplicates.
package fabric

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// MaxFrameSize bounds a single fabric frame (1 GiB) to reject corrupt
// length prefixes before allocating.
const MaxFrameSize = 1 << 30

// crcLen is the size of the CRC32C frame trailer covering header+body.
const crcLen = 4

// castagnoliTable is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64) used for the frame-integrity trailer.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoRoute is returned when forwarding to a machine with no connection.
var ErrNoRoute = errors.New("fabric: no route to machine")

// ErrPeerDown is returned when forwarding to a peer whose redial budget ran
// out: the link is permanently down until Connect is called again.
var ErrPeerDown = errors.New("fabric: peer down")

// DefaultRedialAttempts bounds the redial loop per outage.
const DefaultRedialAttempts = 8

// DefaultRedialBackoff is the first redial delay; it doubles per attempt.
const DefaultRedialBackoff = 25 * time.Millisecond

// retryQueueCap bounds the per-peer retry queue. The queue only covers
// frames caught mid-outage, not general buffering — flow control upstream
// (explorer credits) keeps in-flight counts small, so a short queue is
// enough. A full queue drops its oldest frame (counted in DroppedRetry) to
// take the newest, because in an outage the newest frames (the latest
// weights among them) are the ones worth delivering.
const retryQueueCap = 32

// wireHeader is the gob-encoded subset of message.Header that crosses the
// wire (object IDs are machine-local and re-assigned on arrival).
type wireHeader struct {
	ID             uint64
	Type           uint8
	Src            string
	Dst            []string
	BodySize       int
	Compressed     bool
	CreatedNanos   int64
	WeightsVersion int64
	BaseVersion    int64
	RelayHops      uint8
	Round          int32
	SrcMachine     int
}

// Node is one machine's endpoint in the fabric.
type Node struct {
	machineID int
	ln        net.Listener
	done      chan struct{}

	connWrap       func(net.Conn) net.Conn
	redialAttempts int
	redialBackoff  time.Duration

	mu       sync.Mutex
	peers    map[int]*peerConn
	accepted map[net.Conn]struct{}
	broker   *broker.Broker
	closed   bool

	framesSent     atomic.Int64
	framesReceived atomic.Int64
	bytesSent      atomic.Int64
	bytesReceived  atomic.Int64
	corruptStreams atomic.Int64
	corruptFrames  atomic.Int64
	droppedInject  atomic.Int64
	reconnects     atomic.Int64
	redialFailures atomic.Int64
	retriedFrames  atomic.Int64
	droppedRetry   atomic.Int64

	wg sync.WaitGroup
}

// Metrics is a snapshot of one fabric node's wire-level health counters.
type Metrics struct {
	// FramesSent / FramesReceived count complete frames written to and
	// decoded from peer connections.
	FramesSent     int64
	FramesReceived int64
	// BytesSent / BytesReceived count frame bytes on the wire (prefix +
	// header + body).
	BytesSent     int64
	BytesReceived int64
	// CorruptStreams counts connections torn down on malformed frames
	// (bad length prefix or undecodable header).
	CorruptStreams int64
	// CorruptFrames counts connections torn down on a CRC32C trailer
	// mismatch: structurally plausible frames whose header+body bytes were
	// damaged in flight, caught before the payload reached serialize.
	CorruptFrames int64
	// DroppedInject counts frames received before a broker was attached.
	DroppedInject int64
	// Reconnects counts successful redials of a lost peer connection.
	Reconnects int64
	// RedialFailures counts failed redial attempts while backing off.
	RedialFailures int64
	// RetriedFrames counts frames delivered from the retry queue after a
	// reconnect.
	RetriedFrames int64
	// DroppedRetry counts retry-queued frames abandoned: evicted by a newer
	// frame from a full queue, or dropped when a peer's redial budget ran
	// out.
	DroppedRetry int64
}

// Metrics snapshots the node's wire counters.
func (n *Node) Metrics() Metrics {
	return Metrics{
		FramesSent:     n.framesSent.Load(),
		FramesReceived: n.framesReceived.Load(),
		BytesSent:      n.bytesSent.Load(),
		BytesReceived:  n.bytesReceived.Load(),
		CorruptStreams: n.corruptStreams.Load(),
		CorruptFrames:  n.corruptFrames.Load(),
		DroppedInject:  n.droppedInject.Load(),
		Reconnects:     n.reconnects.Load(),
		RedialFailures: n.redialFailures.Load(),
		RetriedFrames:  n.retriedFrames.Load(),
		DroppedRetry:   n.droppedRetry.Load(),
	}
}

// Wire converts the snapshot into the transport-neutral shape ClusterHealth
// carries.
func (m Metrics) Wire(machineID int) broker.WireMetrics {
	return broker.WireMetrics{
		MachineID:      machineID,
		FramesSent:     m.FramesSent,
		FramesReceived: m.FramesReceived,
		BytesSent:      m.BytesSent,
		BytesReceived:  m.BytesReceived,
		CorruptStreams: m.CorruptStreams,
		CorruptFrames:  m.CorruptFrames,
		Reconnects:     m.Reconnects,
		RedialFailures: m.RedialFailures,
		RetriedFrames:  m.RetriedFrames,
		DroppedRetry:   m.DroppedRetry,
		DroppedInject:  m.DroppedInject,
	}
}

// String renders the snapshot human-readably.
func (m Metrics) String() string {
	return fmt.Sprintf("fabric frames: sent=%d recv=%d bytes: sent=%d recv=%d corrupt=%d corruptFrames=%d droppedInject=%d reconnects=%d redialFail=%d retried=%d droppedRetry=%d",
		m.FramesSent, m.FramesReceived, m.BytesSent, m.BytesReceived, m.CorruptStreams,
		m.CorruptFrames, m.DroppedInject, m.Reconnects, m.RedialFailures, m.RetriedFrames, m.DroppedRetry)
}

var _ broker.Remote = (*Node)(nil)

// connState is one peer link's lifecycle position.
type connState int

const (
	// stateConnected: the peer conn is live; Forward writes directly.
	stateConnected connState = iota
	// stateBackingOff: the conn was lost; a redial loop is (or is about to
	// be) running and Forwards queue into the bounded retry queue.
	stateBackingOff
	// stateDown: the redial budget ran out; Forwards fail fast until a new
	// Connect replaces the peer.
	stateDown
)

// peerConn is one dialed peer link and its reconnect state. All fields are
// guarded by mu; conn is nil except in stateConnected.
type peerConn struct {
	machine int
	addr    string

	mu        sync.Mutex
	conn      net.Conn
	state     connState
	retry     [][]byte // complete wire frames awaiting reconnect
	redialing bool
}

// Listen starts a fabric node accepting peer connections on addr
// (e.g. "127.0.0.1:0").
func Listen(machineID int, addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric listen: %w", err)
	}
	n := &Node{
		machineID:      machineID,
		ln:             ln,
		done:           make(chan struct{}),
		redialAttempts: DefaultRedialAttempts,
		redialBackoff:  DefaultRedialBackoff,
		peers:          make(map[int]*peerConn),
		accepted:       make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listening address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetConnWrapper installs a wrapper applied to every dialed and accepted
// connection — the fault-injection seam (faultinject.Injector.WrapConn).
// Call before Connect and before peers dial in.
func (n *Node) SetConnWrapper(w func(net.Conn) net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.connWrap = w
}

// SetRedialPolicy overrides the per-outage redial budget and initial
// backoff (the backoff doubles per attempt). Call before Connect.
func (n *Node) SetRedialPolicy(attempts int, backoff time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if attempts > 0 {
		n.redialAttempts = attempts
	}
	if backoff > 0 {
		n.redialBackoff = backoff
	}
}

// AttachBroker sets the broker that receives injected remote messages.
// It must be called before traffic arrives.
func (n *Node) AttachBroker(b *broker.Broker) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.broker = b
}

// wrap applies the configured conn wrapper, if any.
func (n *Node) wrap(conn net.Conn) net.Conn {
	n.mu.Lock()
	w := n.connWrap
	n.mu.Unlock()
	if w != nil {
		return w(conn)
	}
	return conn
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn = n.wrap(conn)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(conn, nil)
			n.mu.Lock()
			delete(n.accepted, conn)
			n.mu.Unlock()
		}()
	}
}

// Connect dials a peer machine's fabric node. The connection is used for
// outbound forwarding; the peer learns our machine ID from message headers.
// Re-connecting an already-connected machine ID closes and replaces the old
// link (and clears any down state), so Connect doubles as a manual repair.
func (n *Node) Connect(peerMachine int, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fabric connect to machine %d: %w", peerMachine, err)
	}
	conn = n.wrap(conn)
	p := &peerConn{machine: peerMachine, addr: addr, conn: conn, state: stateConnected}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return errors.New("fabric: node closed")
	}
	old := n.peers[peerMachine]
	n.peers[peerMachine] = p
	n.mu.Unlock()
	if old != nil {
		// Close-and-replace: dropping the old peerConn on the floor would
		// leak its socket and leave its readLoop blocked forever.
		old.mu.Lock()
		if old.conn != nil {
			_ = old.conn.Close()
			old.conn = nil
		}
		dropped := len(old.retry)
		old.retry = nil
		old.state = stateDown
		old.mu.Unlock()
		n.droppedRetry.Add(int64(dropped))
	}
	// Nothing legitimate arrives on a dialed connection, but its reader is
	// how a dialer notices the peer closing the link (EOF → connLost →
	// redial) before its next write.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readLoop(conn, p)
	}()
	return nil
}

// Forward implements broker.Remote: it frames the header and body and
// writes them to the peer connection. On a live peer the frame goes out as
// one vectored write; on a backing-off peer the frame is copied into the
// bounded retry queue and the call reports broker.ErrForwardRetrying
// (transient); on a down peer it fails fast (permanent).
func (n *Node) Forward(srcMachine, dstMachine int, h *message.Header, framed []byte) error {
	n.mu.Lock()
	peer := n.peers[dstMachine]
	n.mu.Unlock()
	if peer == nil {
		return fmt.Errorf("%w %d", ErrNoRoute, dstMachine)
	}
	wh := wireHeader{
		ID:             h.ID,
		Type:           uint8(h.Type),
		Src:            h.Src,
		Dst:            h.Dst,
		BodySize:       h.BodySize,
		Compressed:     h.Compressed,
		CreatedNanos:   h.CreatedNanos,
		WeightsVersion: h.WeightsVersion,
		BaseVersion:    h.BaseVersion,
		RelayHops:      h.RelayHops,
		Round:          h.Round,
		SrcMachine:     srcMachine,
	}
	// Pooled frame-prefix+header buffer: the first 8 bytes are the length
	// prefix, the gob header is appended behind it, and the whole thing is
	// returned to the serialize pool once the frame is on the wire.
	hdr := serialize.GetBuf(128)
	hdr = hdr[:8]
	w := bytesBuffer{b: hdr}
	if err := gob.NewEncoder(&w).Encode(&wh); err != nil {
		serialize.FreeBuf(hdr)
		return fmt.Errorf("fabric encode header: %w", err)
	}
	hdr = w.b
	hdrLen := len(hdr) - 8
	// CRC32C trailer over header+body: the receiver verifies it before the
	// gob decode, so a damaged frame tears the connection down instead of
	// feeding garbage to serialize.
	crc := crc32.Update(0, castagnoliTable, hdr[8:])
	crc = crc32.Update(crc, castagnoliTable, framed)
	var trailer [crcLen]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	frameLen := 4 + hdrLen + len(framed) + crcLen
	binary.BigEndian.PutUint32(hdr[0:], uint32(frameLen))
	binary.BigEndian.PutUint32(hdr[4:], uint32(hdrLen))

	// One vectored write per frame: prefix, header, body, and checksum go
	// out in a single writev, so a frame is never interleaved with another
	// sender's bytes and the connection mutex is held for one syscall.
	total := int64(len(hdr) + len(framed) + crcLen)
	bufs := net.Buffers{hdr, framed, trailer[:]}
	peer.mu.Lock()
	switch peer.state {
	case stateConnected:
		//lint:ignore lockhold frame writes must serialize per connection; peer.mu exists to guard exactly this write
		_, werr := bufs.WriteTo(peer.conn)
		if werr == nil {
			peer.mu.Unlock()
			serialize.FreeBuf(hdr)
			n.framesSent.Add(1)
			n.bytesSent.Add(total)
			return nil
		}
		// The write failed mid-flight: the link is gone. Queue this frame
		// for post-reconnect retry (it may have been partially written; the
		// receiver's framing discards a truncated tail when the conn dies),
		// tear the conn down, and start the redial loop.
		n.droppedRetry.Add(peer.enqueueRetryLocked(hdr, framed, trailer[:]))
		_ = peer.conn.Close()
		peer.conn = nil
		peer.state = stateBackingOff
		spawn := !peer.redialing
		peer.redialing = true
		peer.mu.Unlock()
		serialize.FreeBuf(hdr)
		if spawn {
			n.spawnRedial(peer)
		}
		return fmt.Errorf("fabric write to machine %d failed (%v): %w",
			dstMachine, werr, broker.ErrForwardRetrying)
	case stateBackingOff:
		n.droppedRetry.Add(peer.enqueueRetryLocked(hdr, framed, trailer[:]))
		peer.mu.Unlock()
		serialize.FreeBuf(hdr)
		return fmt.Errorf("fabric: machine %d reconnecting: %w",
			dstMachine, broker.ErrForwardRetrying)
	default: // stateDown
		peer.mu.Unlock()
		serialize.FreeBuf(hdr)
		return fmt.Errorf("%w: machine %d", ErrPeerDown, dstMachine)
	}
}

// enqueueRetryLocked copies one wire frame (prefix+header+body+checksum)
// into the bounded retry queue. The copy is required: hdr is pooled and
// framed belongs to the object store; both outlive this call only through
// the copy. A full queue drops its oldest frame to make room. Caller holds
// p.mu. Reports how many frames were dropped (0 or 1).
func (p *peerConn) enqueueRetryLocked(hdr, framed, trailer []byte) int64 {
	var evicted int64
	if len(p.retry) >= retryQueueCap {
		p.retry[0] = nil
		p.retry = p.retry[1:]
		evicted = 1
	}
	frame := make([]byte, 0, len(hdr)+len(framed)+len(trailer))
	frame = append(frame, hdr...)
	frame = append(frame, framed...)
	frame = append(frame, trailer...)
	p.retry = append(p.retry, frame)
	return evicted
}

// connLost moves a peer whose read loop died to backing-off and ensures a
// redial loop is running. Stale notifications (the conn was already
// replaced) are ignored.
func (n *Node) connLost(p *peerConn, conn net.Conn) {
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return // already handled (write failure, replace, or shutdown)
	}
	_ = p.conn.Close()
	p.conn = nil
	p.state = stateBackingOff
	spawn := !p.redialing
	p.redialing = true
	p.mu.Unlock()
	if spawn {
		n.spawnRedial(p)
	}
}

// spawnRedial starts the redial loop for a backing-off peer unless the node
// is shutting down.
func (n *Node) spawnRedial(p *peerConn) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		p.mu.Lock()
		p.redialing = false
		p.mu.Unlock()
		return
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go n.redialLoop(p)
}

// redialLoop re-dials a lost peer with exponential backoff. On success it
// flushes the retry queue on the fresh connection before reopening the peer
// for regular Forwards, so retried frames keep their order relative to new
// traffic. When the attempt budget runs out the peer goes down and queued
// frames are dropped (counted in DroppedRetry).
func (n *Node) redialLoop(p *peerConn) {
	defer n.wg.Done()
	backoff := n.redialBackoff
	for attempt := 0; attempt < n.redialAttempts; attempt++ {
		timer := time.NewTimer(backoff)
		select {
		case <-n.done:
			timer.Stop()
			p.mu.Lock()
			p.redialing = false
			p.mu.Unlock()
			return
		case <-timer.C:
		}
		backoff *= 2
		conn, err := net.Dial("tcp", p.addr)
		if err != nil {
			n.redialFailures.Add(1)
			continue
		}
		conn = n.wrap(conn)
		if n.installReconnected(p, conn) {
			return
		}
		// Flush failed on the fresh conn; count it and keep trying.
		n.redialFailures.Add(1)
	}
	p.mu.Lock()
	p.state = stateDown
	p.redialing = false
	dropped := len(p.retry)
	p.retry = nil
	p.mu.Unlock()
	n.droppedRetry.Add(int64(dropped))
}

// installReconnected flushes the retry queue over the fresh conn and, on
// success, installs it as the peer's live connection and restarts the read
// loop. The flush happens under p.mu so no new Forward write interleaves
// with (or overtakes) a retried frame. It is one write: a link that resets
// again within a few writes still gets a full queue through, where a write
// per frame would fail the flush every time.
func (n *Node) installReconnected(p *peerConn, conn net.Conn) bool {
	p.mu.Lock()
	var batch []byte
	for _, frame := range p.retry {
		batch = append(batch, frame...)
	}
	var written int
	var err error
	if len(batch) > 0 {
		//lint:ignore lockhold retry flush must complete before the peer reopens for Forward writes; p.mu serializes exactly this
		written, err = conn.Write(batch)
	}
	// The frames wholly written are flushed; the rest stay queued for the
	// next dial.
	flushed := 0
	for _, frame := range p.retry {
		if written < len(frame) {
			break
		}
		written -= len(frame)
		flushed++
		n.retriedFrames.Add(1)
		n.framesSent.Add(1)
		n.bytesSent.Add(int64(len(frame)))
	}
	p.retry = p.retry[flushed:]
	if err != nil {
		p.mu.Unlock()
		_ = conn.Close()
		return false
	}
	p.conn = conn
	p.state = stateConnected
	p.redialing = false
	p.mu.Unlock()
	n.reconnects.Add(1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return true
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.readLoop(conn, p)
	}()
	return true
}

// readLoop decodes inbound frames and injects them into the local broker.
// The frame payload lives in a pooled buffer: InjectRemote copies the body
// into this machine's object store and gob decoding copies the header
// fields, so the buffer goes back to the pool at the end of each iteration.
// Frames arrive only on accepted connections; on a dialed connection
// (p != nil) the loop is there to see the peer close the link, and a read
// failure reports the lost conn to the reconnect state machine.
func (n *Node) readLoop(conn net.Conn, p *peerConn) {
	defer func() {
		_ = conn.Close()
		if p != nil {
			n.connLost(p, conn)
		}
	}()
	prefix := make([]byte, 8)
	for {
		if _, err := io.ReadFull(conn, prefix); err != nil {
			return
		}
		frameLen := binary.BigEndian.Uint32(prefix[0:])
		hdrLen := binary.BigEndian.Uint32(prefix[4:])
		if frameLen > MaxFrameSize || hdrLen+4+crcLen > frameLen {
			n.corruptStreams.Add(1)
			return // corrupt stream
		}
		payload := serialize.GetBuf(int(frameLen - 4))
		payload = payload[:frameLen-4]
		if _, err := io.ReadFull(conn, payload); err != nil {
			serialize.FreeBuf(payload)
			return
		}
		// Verify the CRC32C trailer over header+body before anything is
		// decoded: a damaged frame resets the connection into the redial
		// path instead of handing garbage to gob or serialize.
		covered := payload[:len(payload)-crcLen]
		want := binary.BigEndian.Uint32(payload[len(payload)-crcLen:])
		if crc32.Checksum(covered, castagnoliTable) != want {
			serialize.FreeBuf(payload)
			n.corruptFrames.Add(1)
			return
		}
		var wh wireHeader
		if err := gob.NewDecoder(&sliceReader{b: payload[:hdrLen]}).Decode(&wh); err != nil {
			serialize.FreeBuf(payload)
			n.corruptStreams.Add(1)
			return
		}
		body := covered[hdrLen:]
		h := &message.Header{
			ID:             wh.ID,
			Type:           message.Type(wh.Type),
			Src:            wh.Src,
			Dst:            wh.Dst,
			BodySize:       wh.BodySize,
			Compressed:     wh.Compressed,
			CreatedNanos:   wh.CreatedNanos,
			WeightsVersion: wh.WeightsVersion,
			BaseVersion:    wh.BaseVersion,
			RelayHops:      wh.RelayHops,
			Round:          wh.Round,
		}
		n.framesReceived.Add(1)
		n.bytesReceived.Add(int64(len(prefix) + len(payload)))
		n.mu.Lock()
		b := n.broker
		n.mu.Unlock()
		if b != nil {
			// InjectRemote owns nothing: it copies the body before returning,
			// so the pooled payload can be freed right after.
			_ = b.InjectRemote(h, body)
		} else {
			n.droppedInject.Add(1)
		}
		serialize.FreeBuf(payload)
	}
}

// Stop closes the listener and all peer connections and waits for loops.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	peers := n.peers
	n.peers = map[int]*peerConn{}
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.mu.Unlock()

	_ = n.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.state = stateDown
		p.retry = nil
		p.mu.Unlock()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	n.wg.Wait()
}

// PeerState reports the reconnect state machine's position for a peer
// machine: "connected", "backing-off", "down", or "none" when the machine
// was never connected.
func (n *Node) PeerState(machine int) string {
	n.mu.Lock()
	p := n.peers[machine]
	n.mu.Unlock()
	if p == nil {
		return "none"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case stateConnected:
		return "connected"
	case stateBackingOff:
		return "backing-off"
	default:
		return "down"
	}
}

// StaticLocator is a fixed name→machine table implementing broker.Locator
// for fabric deployments where process placement is known from the
// configuration file (as in the paper).
type StaticLocator map[string]int

var _ broker.Locator = (StaticLocator)(nil)

// Locate implements broker.Locator.
func (l StaticLocator) Locate(name string) (int, bool) {
	m, ok := l[name]
	return m, ok
}

// Small io helpers (avoid bytes dependency churn) -----------------------------

type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type sliceReader struct {
	b   []byte
	pos int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}
