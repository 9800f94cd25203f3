package broker

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xingtian/internal/objectstore"
	"xingtian/internal/stats"
)

// latencySampleCap bounds the send→recv latency reservoir per broker.
const latencySampleCap = 4096

// health is the broker's channel-health counter set. All counters are
// atomic so the router, forwarders, and client sender/receiver threads
// update them without touching the broker lock.
type health struct {
	headersRouted   atomic.Int64
	sends           atomic.Int64
	receives        atomic.Int64
	bodiesForwarded atomic.Int64
	bodiesInjected  atomic.Int64
	bodiesRelayed   atomic.Int64
	bytesIn         atomic.Int64
	bytesForwarded  atomic.Int64
	bytesInjected   atomic.Int64
	bytesRelayed    atomic.Int64

	dropUnknownDst   atomic.Int64
	dropQueueClosed  atomic.Int64
	dropNoRemote     atomic.Int64
	dropForwardError atomic.Int64
	dropRecvError    atomic.Int64
	dropStoreMiss    atomic.Int64
	dropShutdown     atomic.Int64
	dropShedOldest   atomic.Int64
	dropStoreBudget  atomic.Int64
	dropRelayExpired atomic.Int64

	shedBytes atomic.Int64

	forwardRetried atomic.Int64

	releaseErrors atomic.Int64

	superseded atomic.Int64

	delivery *stats.Histogram // send→recv (header creation → materialize)
}

func newHealth() *health {
	return &health{delivery: stats.NewBoundedHistogram(latencySampleCap)}
}

// DropCounts breaks down dropped destination references by reason. Every
// drop corresponds to exactly one released object-store reference, so the
// channel accounts for every body it declines to deliver.
type DropCounts struct {
	// UnknownDestination counts references dropped because no client with
	// the destination name is registered on this machine.
	UnknownDestination int64
	// QueueClosed counts references dropped because the destination's ID
	// queue (or a forwarder/header queue) was closed mid-flight.
	QueueClosed int64
	// NoRemote counts cross-machine references dropped because the broker
	// has no Remote configured.
	NoRemote int64
	// ForwardError counts transfers whose Remote.Forward failed.
	ForwardError int64
	// RecvError counts deliveries whose body failed to decompress or
	// decode at the receiver (corrupt or truncated bodies).
	RecvError int64
	// StoreMiss counts headers whose body was already gone from the
	// object store — a refcount-discipline violation upstream.
	StoreMiss int64
	// ShutdownDrained counts undelivered headers reclaimed by Broker.Stop.
	ShutdownDrained int64
	// ShedOldest counts droppable headers shed oldest-first from queues
	// under backpressure; each shed released exactly one store reference.
	ShedOldest int64
	// StoreBudget counts destination references declined admission because
	// the object store's byte budget was exhausted. Unlike every other drop
	// reason these never created a store reference, so there was nothing to
	// release — the body was refused at the door.
	StoreBudget int64
	// RelayExpired counts remote destination names that arrived at a broker
	// with no relay budget left (Header.RelayHops == 0) or no transport —
	// unreachable leaves of a malformed broadcast tree. Like StoreBudget,
	// no reference was ever created for these.
	RelayExpired int64
}

// Total sums all drop reasons.
func (d DropCounts) Total() int64 {
	return d.UnknownDestination + d.QueueClosed + d.NoRemote +
		d.ForwardError + d.RecvError + d.StoreMiss + d.ShutdownDrained +
		d.ShedOldest + d.StoreBudget + d.RelayExpired
}

// LatencySummary condenses the send→recv latency histogram.
type LatencySummary struct {
	// Count is the number of delivered messages observed.
	Count int
	// Mean, P50, and P99 summarize creation→materialize latency.
	Mean time.Duration
	P50  time.Duration
	P99  time.Duration
}

// MetricsSnapshot is a point-in-time view of one broker's channel health:
// cumulative traffic counters, drop accounting, live queue-depth gauges,
// object-store occupancy, and delivery latency.
type MetricsSnapshot struct {
	// MachineID identifies the broker.
	MachineID int

	// HeadersRouted counts headers the router dispatched.
	HeadersRouted int64
	// Sends counts successful Port.Send calls into this broker.
	Sends int64
	// Receives counts successful Port.Recv/TryRecv materializations.
	Receives int64
	// BodiesForwarded / BodiesInjected count cross-machine transfers out
	// of and into this broker.
	BodiesForwarded int64
	BodiesInjected  int64
	// BodiesRelayed counts injected bodies this broker forwarded onward as
	// an interior node of a broadcast tree.
	BodiesRelayed int64
	// BytesIn is body bytes entering the store via local sends;
	// BytesForwarded / BytesInjected are cross-machine body bytes;
	// BytesRelayed are injected bytes re-forwarded by the broadcast tree.
	BytesIn        int64
	BytesForwarded int64
	BytesInjected  int64
	BytesRelayed   int64

	// ForwardRetried counts transfers whose Remote.Forward reported a
	// transient failure (ErrForwardRetrying): the transport queued its own
	// copy of the frame for redelivery after a reconnect. These are neither
	// successful forwards nor drops.
	ForwardRetried int64

	// Drops breaks down dropped destination references by reason.
	Drops DropCounts
	// ShedBytes is the cumulative body bytes shed under backpressure
	// (oldest-first queue sheds plus budget-refused admissions).
	ShedBytes int64
	// ReleaseErrors counts failed object-store releases (double releases).
	ReleaseErrors int64
	// Superseded counts bodies receivers released unread with Port.Discard:
	// weights a newer snapshot made moot, and fenced-out replica pushes.
	// Each released exactly one reference; none is a drop.
	Superseded int64
	// LeakedAtStop is the number of objects live on a stopped broker at
	// snapshot time (0 while it runs). Stop has drained every queue, so an
	// object still live is a reference somebody popped and has not released:
	// a receiver mid-decode lowers it again, a refcount-contract violation
	// never does. Read it after joining the receivers.
	LeakedAtStop int64

	// HeaderQueueDepth, IDQueueDepths, and ForwarderDepths are live
	// queue-occupancy gauges at snapshot time.
	HeaderQueueDepth int
	IDQueueDepths    map[string]int
	ForwarderDepths  map[int]int

	// Store is the object store's occupancy snapshot.
	Store objectstore.Stats

	// Delivery summarizes send→recv latency.
	Delivery LatencySummary
}

// Metrics snapshots the broker's channel health. Each snapshot also
// records an object-store watermark (objectstore.Store.Checkpoint), so the
// periodic health tick doubles as the age baseline for the leak detector.
func (b *Broker) Metrics() MetricsSnapshot {
	b.store.Checkpoint()
	h := b.health
	snap := MetricsSnapshot{
		MachineID:       b.machineID,
		HeadersRouted:   h.headersRouted.Load(),
		Sends:           h.sends.Load(),
		Receives:        h.receives.Load(),
		BodiesForwarded: h.bodiesForwarded.Load(),
		BodiesInjected:  h.bodiesInjected.Load(),
		BodiesRelayed:   h.bodiesRelayed.Load(),
		BytesIn:         h.bytesIn.Load(),
		BytesForwarded:  h.bytesForwarded.Load(),
		BytesInjected:   h.bytesInjected.Load(),
		BytesRelayed:    h.bytesRelayed.Load(),
		ForwardRetried:  h.forwardRetried.Load(),
		Drops: DropCounts{
			UnknownDestination: h.dropUnknownDst.Load(),
			QueueClosed:        h.dropQueueClosed.Load(),
			NoRemote:           h.dropNoRemote.Load(),
			ForwardError:       h.dropForwardError.Load(),
			RecvError:          h.dropRecvError.Load(),
			StoreMiss:          h.dropStoreMiss.Load(),
			ShutdownDrained:    h.dropShutdown.Load(),
			ShedOldest:         h.dropShedOldest.Load(),
			StoreBudget:        h.dropStoreBudget.Load(),
			RelayExpired:       h.dropRelayExpired.Load(),
		},
		ShedBytes:        h.shedBytes.Load(),
		ReleaseErrors:    h.releaseErrors.Load(),
		Superseded:       h.superseded.Load(),
		HeaderQueueDepth: b.headerQ.Len(),
		Store:            b.store.Stats(),
		Delivery: LatencySummary{
			Count: h.delivery.Count(),
			Mean:  h.delivery.Mean(),
			P50:   h.delivery.Percentile(50),
			P99:   h.delivery.Percentile(99),
		},
	}
	b.mu.Lock()
	if b.stopped {
		snap.LeakedAtStop = int64(snap.Store.Objects)
	}
	snap.IDQueueDepths = make(map[string]int, len(b.idQueues))
	for name, q := range b.idQueues {
		snap.IDQueueDepths[name] = q.Len()
	}
	snap.ForwarderDepths = make(map[int]int, len(b.forwarders))
	for machine, fq := range b.forwarders {
		snap.ForwarderDepths[machine] = fq.Len()
	}
	b.mu.Unlock()
	return snap
}

// Leaked reports object-store entries older than olderThan (see
// objectstore.Store.Leaked) — the broker-level leak detector.
func (b *Broker) Leaked(olderThan time.Duration) []objectstore.LeakRecord {
	return b.store.Leaked(olderThan)
}

// VerifyDrained asserts every object-store refcount returned to zero.
func (b *Broker) VerifyDrained() error {
	return b.store.VerifyDrained()
}

// String renders the snapshot human-readably, one logical line per area.
func (m MetricsSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "broker[m%d] routed=%d sent=%d recv=%d superseded=%d fwd=%d inj=%d relayed=%d\n",
		m.MachineID, m.HeadersRouted, m.Sends, m.Receives, m.Superseded, m.BodiesForwarded, m.BodiesInjected, m.BodiesRelayed)
	fmt.Fprintf(&sb, "  bytes: in=%s fwd=%s inj=%s relay=%s store=%s (peak %s, %d live)\n",
		stats.FormatBytes(float64(m.BytesIn)), stats.FormatBytes(float64(m.BytesForwarded)),
		stats.FormatBytes(float64(m.BytesInjected)), stats.FormatBytes(float64(m.BytesRelayed)),
		stats.FormatBytes(float64(m.Store.Bytes)),
		stats.FormatBytes(float64(m.Store.PeakBytes)), m.Store.Objects)
	fmt.Fprintf(&sb, "  drops: total=%d unknownDst=%d queueClosed=%d noRemote=%d fwdErr=%d fwdRetried=%d recvErr=%d storeMiss=%d shutdown=%d shedOldest=%d storeBudget=%d relayExpired=%d releaseErr=%d leakedAtStop=%d\n",
		m.Drops.Total(), m.Drops.UnknownDestination, m.Drops.QueueClosed, m.Drops.NoRemote,
		m.Drops.ForwardError, m.ForwardRetried, m.Drops.RecvError, m.Drops.StoreMiss, m.Drops.ShutdownDrained,
		m.Drops.ShedOldest, m.Drops.StoreBudget, m.Drops.RelayExpired, m.ReleaseErrors, m.LeakedAtStop)
	if m.Store.Budget > 0 || m.ShedBytes > 0 {
		fmt.Fprintf(&sb, "  backpressure: budget=%s peakLive=%s pressured=%v enters=%d rejects=%d shedBytes=%s\n",
			stats.FormatBytes(float64(m.Store.Budget)), stats.FormatBytes(float64(m.Store.PeakLiveBytes)),
			m.Store.Backpressure, m.Store.BackpressureEnters, m.Store.BudgetRejects,
			stats.FormatBytes(float64(m.ShedBytes)))
	}
	fmt.Fprintf(&sb, "  queues: header=%d ids=%s forwarders=%s\n",
		m.HeaderQueueDepth, formatDepths(m.IDQueueDepths), formatIntDepths(m.ForwarderDepths))
	fmt.Fprintf(&sb, "  delivery: n=%d mean=%v p50=%v p99=%v",
		m.Delivery.Count, m.Delivery.Mean.Round(time.Microsecond),
		m.Delivery.P50.Round(time.Microsecond), m.Delivery.P99.Round(time.Microsecond))
	return sb.String()
}

// Summary is a one-line condensation for periodic logging.
func (m MetricsSnapshot) Summary() string {
	s := fmt.Sprintf("m%d routed=%d recv=%d drops=%d live=%d hdrQ=%d lat(p50)=%v",
		m.MachineID, m.HeadersRouted, m.Receives, m.Drops.Total(),
		m.Store.Objects, m.HeaderQueueDepth, m.Delivery.P50.Round(time.Microsecond))
	if shed := m.Drops.ShedOldest + m.Drops.StoreBudget; shed > 0 || m.Store.Backpressure {
		s += fmt.Sprintf(" shed=%d pressured=%v", shed, m.Store.Backpressure)
	}
	return s
}

func formatDepths(d map[string]int) string {
	if len(d) == 0 {
		return "{}"
	}
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", n, d[n]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func formatIntDepths(d map[int]int) string {
	if len(d) == 0 {
		return "{}"
	}
	keys := make([]int, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("m%d:%d", k, d[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// WireMetrics is a transport-level health snapshot for one machine's fabric
// endpoint: frame/byte counters plus the reconnect state machine's fault
// counters. The broker package defines the shape so ClusterHealth can carry
// wire health without depending on a concrete transport; the TCP fabric
// fills it in (netsim clusters have no wire and leave it empty).
type WireMetrics struct {
	// MachineID identifies the endpoint.
	MachineID int
	// FramesSent / FramesReceived count complete frames on the wire.
	FramesSent     int64
	FramesReceived int64
	// BytesSent / BytesReceived count frame bytes on the wire.
	BytesSent     int64
	BytesReceived int64
	// CorruptStreams counts connections torn down on malformed frames.
	CorruptStreams int64
	// CorruptFrames counts connections torn down on a frame-checksum
	// mismatch: the payload bytes were damaged in flight and were discarded
	// before deserialization.
	CorruptFrames int64
	// Reconnects counts successful redials of a lost peer connection.
	Reconnects int64
	// RedialFailures counts failed redial attempts while backing off.
	RedialFailures int64
	// RetriedFrames counts frames delivered from the per-peer retry queue
	// after a reconnect.
	RetriedFrames int64
	// DroppedRetry counts retry-queued frames abandoned: evicted by a newer
	// frame from a full queue, or dropped when a peer's redial budget ran
	// out (the link went down permanently).
	DroppedRetry int64
	// DroppedInject counts frames discarded by fault injection (test rigs
	// only; always zero in production).
	DroppedInject int64
	// AcksSent is always 0: the fabric's wire is one-way and sends no acks.
	// It stays only because the benchmark's fabric.acks_sent row reads it;
	// the benchmark change that drops that row deletes the field.
	AcksSent int64
	// CreditStalls is always 0: the fabric has no credit window to stall
	// on. It stays only because the benchmark's fabric.credit_stalls row
	// reads it; the benchmark change that drops that row deletes the field.
	CreditStalls int64
}

// SupervisionStats summarizes the session's explorer supervision layer:
// how many explorer processes were torn down and restarted after agent
// errors, and the most recent restart-causing error. Filled in by
// core.Session when it snapshots cluster health.
type SupervisionStats struct {
	// ExplorerRestarts counts successful explorer restarts.
	ExplorerRestarts int64
	// BudgetExhausted counts explorer slots that died permanently: their
	// restart budget ran out or a restart failed.
	BudgetExhausted int64
	// LastRestartError is the message of the most recent error that caused
	// a restart (empty when no restart happened).
	LastRestartError string
}

// ClusterHealth aggregates per-broker snapshots for a whole deployment.
type ClusterHealth struct {
	// Brokers holds one snapshot per machine, ordered by machine ID.
	Brokers []MetricsSnapshot
	// Wire holds one transport snapshot per machine for deployments running
	// over a real fabric (empty for in-process/netsim clusters).
	Wire []WireMetrics
	// Supervision summarizes explorer restarts (zero value when the session
	// runs without a restart budget).
	Supervision SupervisionStats
}

// TotalLeaked sums objects still live at stop across all brokers.
func (c ClusterHealth) TotalLeaked() int64 {
	var n int64
	for _, b := range c.Brokers {
		n += b.LeakedAtStop
	}
	return n
}

// String renders the wire snapshot human-readably.
func (w WireMetrics) String() string {
	s := fmt.Sprintf("wire[m%d] frames: sent=%d recv=%d bytes: sent=%d recv=%d corrupt=%d corruptFrames=%d reconnects=%d redialFail=%d retried=%d droppedRetry=%d",
		w.MachineID, w.FramesSent, w.FramesReceived, w.BytesSent, w.BytesReceived,
		w.CorruptStreams, w.CorruptFrames, w.Reconnects, w.RedialFailures, w.RetriedFrames, w.DroppedRetry)
	if w.DroppedInject > 0 {
		s += fmt.Sprintf(" droppedInject=%d", w.DroppedInject)
	}
	return s
}

// String renders every broker's snapshot, plus wire and supervision state
// when present.
func (c ClusterHealth) String() string {
	parts := make([]string, 0, len(c.Brokers)+len(c.Wire)+1)
	for _, b := range c.Brokers {
		parts = append(parts, b.String())
	}
	for _, w := range c.Wire {
		parts = append(parts, w.String())
	}
	if s := c.Supervision; s.ExplorerRestarts > 0 || s.BudgetExhausted > 0 {
		parts = append(parts, fmt.Sprintf("supervision: restarts=%d budgetExhausted=%d lastErr=%q",
			s.ExplorerRestarts, s.BudgetExhausted, s.LastRestartError))
	}
	return strings.Join(parts, "\n")
}

// Summary renders one line per broker, with wire reconnect counters and
// supervision restarts appended when the deployment has them.
func (c ClusterHealth) Summary() string {
	parts := make([]string, 0, len(c.Brokers)+2)
	for _, b := range c.Brokers {
		parts = append(parts, b.Summary())
	}
	var reconnects, redialFailures, retried, corrupt, corruptFrames int64
	for _, w := range c.Wire {
		reconnects += w.Reconnects
		redialFailures += w.RedialFailures
		retried += w.RetriedFrames
		corrupt += w.CorruptStreams
		corruptFrames += w.CorruptFrames
	}
	if len(c.Wire) > 0 {
		parts = append(parts, fmt.Sprintf("wire reconnects=%d redialFail=%d retried=%d corrupt=%d corruptFrames=%d",
			reconnects, redialFailures, retried, corrupt, corruptFrames))
	}
	if s := c.Supervision; s.ExplorerRestarts > 0 || s.BudgetExhausted > 0 {
		parts = append(parts, fmt.Sprintf("restarts=%d budgetExhausted=%d",
			s.ExplorerRestarts, s.BudgetExhausted))
	}
	return strings.Join(parts, " | ")
}
