// Package broker implements XingTian's broker process: the shared-memory
// communicator (object store + header queue), the per-client ID queues, and
// the algorithm-agnostic router that pushes every message toward its
// destinations the moment it is produced.
//
// The broker is deliberately ignorant of DRL semantics — it never inspects
// bodies, only header metadata — which is what makes the channel reusable
// across PPO, DQN, IMPALA, the dummy benchmark algorithm, and PBT broker
// sets. Cross-machine forwarding is delegated to a Remote implementation
// (an in-process simulated network or a real TCP fabric).
//
// # Refcount ownership
//
// Object-store references follow the contract documented in package
// objectstore: Port.Send pins one reference per resolved destination, the
// router hands each reference to an ID queue or forwarder, and whoever pops
// a header owns (and must release) its reference on every path, including
// decode errors and shutdown. Headers are never shared between
// destinations: the router and InjectRemote hand each receiver its own
// Header copy with Dst narrowed to that receiver, so concurrent workhorse
// threads never alias mutable header state.
//
// # Channel health
//
// Every broker keeps an always-on health ledger — traffic counters, drop
// accounting by reason, queue-depth gauges, object-store occupancy, and a
// send→recv latency reservoir — exposed via Broker.Metrics. Stop drains
// undelivered headers and releases their references; from then on Metrics
// reports every object still live as LeakedAtStop, so a reference a receiver
// was still holding when Stop ran counts only until it is released, and one
// nobody will release counts forever. Tests use VerifyDrained to turn
// refcount discipline into an assertion.
package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/objectstore"
	"xingtian/internal/queue"
	"xingtian/internal/serialize"
)

// ErrForwardRetrying marks a Remote.Forward failure as transient: the
// transport has taken its own copy of the frame and will retry it after
// reconnecting, so the broker records the transfer as retried rather than
// dropped. Transports wrap this sentinel (errors.Is) when they queue a frame
// for post-reconnect redelivery.
var ErrForwardRetrying = errors.New("broker: forward queued for retry after reconnect")

// Remote forwards a framed message toward a broker on another machine.
// Implementations model or implement the inter-machine data fabric.
type Remote interface {
	// Forward delivers the header and framed body to dstMachine's broker.
	// An error wrapping ErrForwardRetrying means the frame was accepted for
	// retry after a reconnect (transient); any other error is a permanent
	// drop of this transfer.
	Forward(srcMachine, dstMachine int, h *message.Header, framed []byte) error
}

// Broker is one machine's communication hub.
type Broker struct {
	machineID  int
	store      *objectstore.Store
	headerQ    *queue.Queue[*message.Header]
	compressor serialize.Compressor
	remote     Remote
	locator    Locator
	health     *health
	shedDepth  int

	ackMu sync.Mutex
	acked map[string]int64 // last weights version seen on each source's rollouts

	mu         sync.Mutex
	idQueues   map[string]*queue.Queue[*message.Header]
	forwarders map[int]*queue.Queue[forwardItem]

	wg         sync.WaitGroup
	routerDone chan struct{}
	stopped    bool

	// materializeHook, when set (by tests, before any traffic), runs inside
	// Port.Open while the receiver holds its object-store reference.
	materializeHook func()
}

// forwardItem is one cross-machine transfer awaiting its ordered turn on
// the per-destination forwarder.
type forwardItem struct {
	header *message.Header
	framed []byte
	objID  objectstore.ID
}

// Locator resolves a client name to the machine hosting it.
type Locator interface {
	// Locate returns the machine ID for the named client and whether the
	// name is known.
	Locate(name string) (int, bool)
}

// Config parameterizes a broker.
type Config struct {
	// MachineID identifies the machine this broker serves.
	MachineID int
	// Compressor frames bodies entering the object store. The zero value
	// disables compression; use serialize.NewCompressor for the 1 MB
	// default.
	Compressor serialize.Compressor
	// Remote forwards cross-machine traffic; nil restricts the broker to
	// one machine.
	Remote Remote
	// Locator resolves destination names to machines; nil treats all names
	// as local.
	Locator Locator
	// StoreBudget bounds the object store to roughly this many live bytes
	// (see objectstore.WithBudget); 0 keeps the store unbounded. Under
	// backpressure droppable traffic is refused admission (TryPut) and
	// queued droppable headers are shed oldest-first, while weights/control
	// messages always get through.
	StoreBudget int64
	// ShedQueueDepth additionally sheds the oldest droppable header whenever
	// a destination queue reaches this depth, independent of the byte
	// budget; 0 disables depth-based shedding.
	ShedQueueDepth int
}

// New starts a broker and its router goroutine.
func New(cfg Config) *Broker {
	b := &Broker{
		machineID:  cfg.MachineID,
		store:      objectstore.New(objectstore.WithBudget(cfg.StoreBudget)),
		headerQ:    queue.New[*message.Header](),
		shedDepth:  cfg.ShedQueueDepth,
		compressor: cfg.Compressor,
		remote:     cfg.Remote,
		locator:    cfg.Locator,
		health:     newHealth(),
		acked:      make(map[string]int64),
		idQueues:   make(map[string]*queue.Queue[*message.Header]),
		forwarders: make(map[int]*queue.Queue[forwardItem]),
		routerDone: make(chan struct{}),
	}
	b.wg.Add(1)
	go func() {
		defer close(b.routerDone)
		b.route()
	}()
	return b
}

// MachineID returns the broker's machine.
func (b *Broker) MachineID() int { return b.machineID }

// Store exposes the shared-memory object store (for tests and stats).
func (b *Broker) Store() *objectstore.Store { return b.store }

// release drops one object-store reference, recording a failed release
// (double release / unknown ID) in the health ledger.
func (b *Broker) release(id objectstore.ID) {
	if err := b.store.Release(id); err != nil {
		b.health.releaseErrors.Add(1)
	}
}

// Register attaches a named client process and returns its Port. The name
// must be unique per broker.
func (b *Broker) Register(name string) (*Port, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return nil, fmt.Errorf("broker: register %q on stopped broker", name)
	}
	if _, exists := b.idQueues[name]; exists {
		return nil, fmt.Errorf("broker: client %q already registered", name)
	}
	q := queue.New[*message.Header]()
	b.idQueues[name] = q
	return &Port{broker: b, name: name, idQueue: q}, nil
}

// Unregister detaches a client, closing its ID queue and reclaiming the
// references of any headers still undelivered in it.
func (b *Broker) Unregister(name string) {
	b.mu.Lock()
	q := b.idQueues[name]
	delete(b.idQueues, name)
	b.mu.Unlock()
	if q != nil {
		q.Close()
		b.drainIDQueue(q)
	}
}

func (b *Broker) idQueue(name string) *queue.Queue[*message.Header] {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.idQueues[name]
}

// localRemoteSplit partitions destinations into local names and the set of
// remote machines involved.
func (b *Broker) localRemoteSplit(dst []string) (local []string, remoteMachines map[int][]string) {
	for _, d := range dst {
		machine := b.machineID
		if b.locator != nil {
			if m, ok := b.locator.Locate(d); ok {
				machine = m
			}
		}
		if machine == b.machineID {
			local = append(local, d)
			continue
		}
		if remoteMachines == nil {
			remoteMachines = make(map[int][]string)
		}
		remoteMachines[machine] = append(remoteMachines[machine], d)
	}
	return local, remoteMachines
}

// route is the algorithm-agnostic router: it monitors the shared-memory
// communicator's header queue and dispatches each header to the ID queues
// of all destination processes (and to peer brokers for remote
// destinations). Each destination receives its own Header copy with Dst
// narrowed to that destination, so receivers never share mutable state.
func (b *Broker) route() {
	defer b.wg.Done()
	for {
		h, err := b.headerQ.Get()
		if err != nil {
			return // broker stopped
		}
		b.health.headersRouted.Add(1)
		local, remotes := b.localRemoteSplit(h.Dst)
		// The sender pinned exactly one reference; the authoritative
		// destination split happens here, once. Splitting in both Send and
		// route lets a registration move between the two calls (fragment
		// re-placement swaps names across machines mid-flight) and skews
		// the refcount ledger — consolidated destinations leak, dispersed
		// ones over-release. Pin up to the route-time count before any
		// consumer can release.
		need := len(local) + len(remotes)
		if need == 0 {
			// Every destination vanished since Send: drop silently, as
			// Send itself does for unreachable names.
			b.release(h.ObjectID)
			continue
		}
		for i := 1; i < need; i++ {
			// Cannot fail: this goroutine still holds the sender's pin.
			//lint:ignore refbalance each pinned reference is released by its consumer — the local Recv/drop paths or the remote forward ledger below
			_ = b.store.Pin(h.ObjectID)
		}

		for _, name := range local {
			q := b.idQueue(name)
			if q == nil {
				// Unknown local client: drop this destination's reference
				// so the body is not leaked.
				b.health.dropUnknownDst.Add(1)
				b.release(h.ObjectID)
				continue
			}
			if h.Type.Droppable() {
				// Under backpressure a new trajectory supersedes queued
				// ones: shed the oldest droppable headers first so the
				// receiver always sees the freshest data the budget allows.
				b.shedOldest(q)
			}
			hc := *h // per-destination copy: receivers must not alias
			hc.Dst = []string{name}
			if err := q.Put(&hc); err != nil {
				b.health.dropQueueClosed.Add(1)
				b.release(h.ObjectID)
			}
		}

		// Star fan-out: one frame per remote machine, addressed only to
		// that machine's clients.
		for machine, names := range remotes {
			framed, err := b.store.Get(h.ObjectID)
			if err != nil {
				b.health.dropStoreMiss.Add(1)
				continue
			}
			if b.remote == nil {
				b.health.dropNoRemote.Add(1)
				b.release(h.ObjectID)
				continue
			}
			fh := *h // shallow copy; Dst narrowed to this machine's clients
			fh.Dst = names
			// Hand the transfer to the per-destination forwarder: transfers
			// to one machine stay ordered (so newer weights never lose to
			// older ones), while transfers to different machines — and all
			// local routing — overlap, the paper's aggressive push.
			fq := b.forwarder(machine)
			if fq == nil {
				b.health.dropQueueClosed.Add(1)
				b.release(h.ObjectID)
				continue
			}
			if h.Type.Droppable() {
				b.shedOldestForward(fq)
			}
			if fq.Put(forwardItem{header: &fh, framed: framed, objID: h.ObjectID}) != nil {
				b.health.dropQueueClosed.Add(1)
				b.release(h.ObjectID)
			}
		}
	}
}

// shouldShed reports whether drop-oldest shedding should run against a
// queue currently at depth items: either the store is in backpressure mode
// or the queue crossed the configured depth limit.
func (b *Broker) shouldShed(depth int) bool {
	return b.store.Pressured() || (b.shedDepth > 0 && depth >= b.shedDepth)
}

// shedOldest pops droppable headers off the front of an ID queue while the
// channel is overloaded, releasing their references and counting each shed
// in the drop taxonomy. It stops at the first privileged head — weights and
// control messages are never shed.
func (b *Broker) shedOldest(q *queue.Queue[*message.Header]) {
	for b.shouldShed(q.Len()) {
		h, ok := q.PopIf(func(h *message.Header) bool { return h.Type.Droppable() })
		if !ok {
			return
		}
		b.health.dropShedOldest.Add(1)
		b.health.shedBytes.Add(int64(h.BodySize))
		b.release(h.ObjectID)
	}
}

// shedOldestForward is shedOldest for a per-machine forwarder queue.
func (b *Broker) shedOldestForward(fq *queue.Queue[forwardItem]) {
	for b.shouldShed(fq.Len()) {
		item, ok := fq.PopIf(func(it forwardItem) bool { return it.header.Type.Droppable() })
		if !ok {
			return
		}
		b.health.dropShedOldest.Add(1)
		b.health.shedBytes.Add(int64(len(item.framed)))
		b.release(item.objID)
	}
}

// admit inserts a framed body into the object store with priority-aware
// admission: privileged bodies (weights, control, stats) always enter via
// Put, droppable ones (rollouts, dummy traffic) go through TryPut and are
// refused once the store's byte budget is exhausted. A refusal returns
// ErrBudget with no reference created; callers count the shed and move on.
func (b *Broker) admit(t message.Type, framed []byte, refs int) (objectstore.ID, error) {
	if t.Droppable() {
		return b.store.TryPut(framed, refs)
	}
	return b.store.Put(framed, refs), nil
}

// forwarder returns (creating on first use) the ordered transfer queue for
// a destination machine.
func (b *Broker) forwarder(machine int) *queue.Queue[forwardItem] {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return nil
	}
	fq, ok := b.forwarders[machine]
	if !ok {
		fq = queue.New[forwardItem]()
		b.forwarders[machine] = fq
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for {
				item, err := fq.Get()
				if err != nil {
					return
				}
				if err := b.remote.Forward(b.machineID, machine, item.header, item.framed); err != nil {
					// Transient failures (frame queued for retry behind a
					// reconnect) are not drops: the transport owns a copy
					// and redelivers it. Everything else is permanent.
					if errors.Is(err, ErrForwardRetrying) {
						b.health.forwardRetried.Add(1)
					} else {
						b.health.dropForwardError.Add(1)
					}
				} else {
					b.health.bodiesForwarded.Add(1)
					b.health.bytesForwarded.Add(int64(len(item.framed)))
				}
				b.release(item.objID)
			}
		}()
	}
	return fq
}

// InjectRemote accepts a message forwarded from another machine's broker:
// the framed body enters this machine's object store and the header is
// dispatched to local ID queues, one private Header copy per receiver. It
// implements the receiving half of Remote.Forward.
func (b *Broker) InjectRemote(h *message.Header, framed []byte) error {
	if h.Type == message.TypeRollout {
		b.noteAck(h.Src, h.WeightsVersion)
	}
	refs := len(h.Dst)
	if refs == 0 {
		return nil
	}
	body := append([]byte(nil), framed...) // own the bytes on this machine
	id, err := b.admit(h.Type, body, refs)
	if err != nil {
		// Budget refusal: the trajectory is shed at this machine's door, one
		// declined destination reference per receiver. No store reference
		// was created, so there is nothing to release.
		b.health.dropStoreBudget.Add(int64(refs))
		b.health.shedBytes.Add(int64(len(body)))
		return nil
	}
	b.health.bodiesInjected.Add(1)
	b.health.bytesInjected.Add(int64(len(body)))
	local, remotes := b.localRemoteSplit(h.Dst)
	for _, names := range remotes {
		// Every frame makes one hop, to the machine the sender located. A
		// name the locator has since moved elsewhere (fragment re-placement
		// mid-flight) is unreachable from here.
		b.health.dropUnknownDst.Add(int64(len(names)))
		for range names {
			b.release(id)
		}
	}
	for _, name := range local {
		q := b.idQueue(name)
		if q == nil {
			b.health.dropUnknownDst.Add(1)
			b.release(id)
			continue
		}
		if h.Type.Droppable() {
			b.shedOldest(q)
		}
		nh := *h // per-receiver copy: receivers must not alias
		nh.ObjectID = id
		nh.Dst = []string{name}
		if err := q.Put(&nh); err != nil {
			b.health.dropQueueClosed.Add(1)
			b.release(id)
		}
	}
	return nil
}

// noteAck records the weights version carried on a rollout header — the
// implicit acknowledgement the weight plane's planner uses to judge how far
// behind each explorer is. The last observed value is kept (not the max) so
// a restarted explorer's version regression is visible upstream.
func (b *Broker) noteAck(src string, version int64) {
	if src == "" {
		return
	}
	b.ackMu.Lock()
	b.acked[src] = version
	b.ackMu.Unlock()
}

// MergeAcked folds forwarded acks into this broker's ledger. The fragment
// runtime uses it because the broadcast fragment, whose weight plane needs
// the ledger, sees no rollout traffic: each learn replica forwards the acks
// of the rollouts it ingested, and the broadcaster merges them here. Unlike
// noteAck, an entry only rises: every replica sees its own share of one
// explorer's rollouts, so a lower version is an older report, not a
// restart. (A restarted explorer's first delta fails on its empty mirror,
// and its NACK forces the dense resync.)
func (b *Broker) MergeAcked(snap map[string]int64) {
	if len(snap) == 0 {
		return
	}
	b.ackMu.Lock()
	for k, v := range snap {
		if cur, ok := b.acked[k]; !ok || v > cur {
			b.acked[k] = v
		}
	}
	b.ackMu.Unlock()
}

// AckedWeights returns a copy of the last weights version observed on each
// source's rollout traffic through this broker.
func (b *Broker) AckedWeights() map[string]int64 {
	b.ackMu.Lock()
	defer b.ackMu.Unlock()
	out := make(map[string]int64, len(b.acked))
	for k, v := range b.acked {
		out[k] = v
	}
	return out
}

// drainIDQueue reclaims the object-store references of headers left
// undelivered in a closed ID queue.
func (b *Broker) drainIDQueue(q *queue.Queue[*message.Header]) {
	for {
		h, err := q.TryGet()
		if err != nil {
			return
		}
		b.health.dropShutdown.Add(1)
		b.release(h.ObjectID)
	}
}

// Stop shuts the router down, closes all client queues and reclaims the
// references of undelivered headers. It is idempotent and waits for
// in-flight forwards to finish — but not for receivers still decoding a
// message they already popped: their references show as LeakedAtStop in
// Metrics until they release them.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	queues := make([]*queue.Queue[*message.Header], 0, len(b.idQueues))
	for _, q := range b.idQueues {
		queues = append(queues, q)
	}
	b.mu.Unlock()

	b.headerQ.Close()
	<-b.routerDone // router drains the header queue before forwarders close
	b.mu.Lock()
	forwarders := make([]*queue.Queue[forwardItem], 0, len(b.forwarders))
	for _, fq := range b.forwarders {
		forwarders = append(forwarders, fq)
	}
	b.mu.Unlock()
	for _, fq := range forwarders {
		fq.Close() // forwarders drain queued transfers, then exit
	}
	b.wg.Wait()
	for _, q := range queues {
		q.Close()
		b.drainIDQueue(q)
	}
}

// Port is a client's attachment to the broker: Send serializes and pushes a
// message into the shared-memory communicator; Recv blocks on the client's
// ID queue and materializes the next message. A receiver that only needs
// the newest of several queued messages pops headers with NextHeader and
// Opens the one it uses, Discarding the rest unread.
type Port struct {
	broker  *Broker
	name    string
	idQueue *queue.Queue[*message.Header]
}

// Name returns the client name this port was registered under.
func (p *Port) Name() string { return p.name }

// Send serializes, optionally compresses, and stores the message body, then
// publishes the header to the router. It returns once the message has been
// handed to the asynchronous channel — not once it is delivered.
//
// The marshal buffer is pooled, and so is Pack's compression scratch: Pack
// copies the framed body out at exact size for the object store to own, so
// the marshal buffer is freed as soon as framing is done and the steady-state
// send path allocates only the framed body.
func (p *Port) Send(m *message.Message) error {
	raw, err := serialize.MarshalPooled(m.Body)
	if err != nil {
		return fmt.Errorf("broker send from %s: %w", p.name, err)
	}
	framed, compressed := p.broker.compressor.Pack(raw)
	serialize.FreeBuf(raw)

	// The split here is advisory — a reachability check and drop-accounting
	// weight only. The router recomputes it and owns the refcount ledger
	// (see route): the sender pins exactly one reference, so a registration
	// that moves between this call and routing cannot skew the ledger.
	local, remotes := p.broker.localRemoteSplit(m.Header.Dst)
	refs := len(local) + len(remotes)
	if refs == 0 {
		return nil // no reachable destination; drop silently like a router
	}
	h := m.Header
	id, err := p.broker.admit(h.Type, framed, 1)
	if err != nil {
		// Budget refusal: the trajectory is shed at the source. Sends are
		// fire-and-forget for droppable traffic, so the producer keeps
		// running at whatever rate the channel can absorb — the shed is
		// visible in the drop taxonomy, not as a sender error.
		p.broker.health.dropStoreBudget.Add(int64(refs))
		p.broker.health.shedBytes.Add(int64(len(framed)))
		return nil
	}
	h.ObjectID = id
	h.BodySize = len(framed)
	h.Compressed = compressed
	if err := p.broker.headerQ.Put(h); err != nil {
		// Router is gone; reclaim the pinned reference.
		p.broker.health.dropQueueClosed.Add(int64(refs))
		p.broker.release(h.ObjectID)
		return fmt.Errorf("broker send from %s: %w", p.name, err)
	}
	p.broker.health.sends.Add(1)
	p.broker.health.bytesIn.Add(int64(len(framed)))
	if h.Type == message.TypeRollout {
		p.broker.noteAck(h.Src, h.WeightsVersion)
	}
	return nil
}

// AckedWeights exposes the broker's rollout-carried weights-version ledger
// (see Broker.AckedWeights); the learner's planner polls it per broadcast.
func (p *Port) AckedWeights() map[string]int64 { return p.broker.AckedWeights() }

// MergeAcked folds a forwarded ack-ledger snapshot into the broker's ledger
// (see Broker.MergeAcked).
func (p *Port) MergeAcked(snap map[string]int64) { p.broker.MergeAcked(snap) }

// Recv blocks until a message addressed to this client arrives, fetches the
// body from the object store (releasing the reference), and decodes it.
func (p *Port) Recv() (*message.Message, error) {
	h, err := p.NextHeader(true)
	if err != nil {
		return nil, err
	}
	return p.Open(h)
}

// TryRecv is the non-blocking variant of Recv.
func (p *Port) TryRecv() (*message.Message, error) {
	h, err := p.NextHeader(false)
	if err != nil {
		return nil, err
	}
	return p.Open(h)
}

// NextHeader pops the next header addressed to this client and leaves its
// body in the object store. With block it waits for one; without, an empty
// queue returns queue.ErrEmpty. Its only error once the client is detached
// is queue.ErrClosed. The caller owns the header's reference and must hand
// the header to exactly one of Open or Discard.
func (p *Port) NextHeader(block bool) (*message.Header, error) {
	if block {
		return p.idQueue.Get()
	}
	return p.idQueue.TryGet()
}

// NextHeaderWithin is the blocking NextHeader, but for d > 0 it waits at
// most d: a queue still empty then returns queue.ErrTimeout.
func (p *Port) NextHeaderWithin(d time.Duration) (*message.Header, error) {
	if d <= 0 {
		return p.idQueue.Get()
	}
	return p.idQueue.GetTimeout(d)
}

// Discard releases a header NextHeader returned without reading its body:
// the release path for a message a newer one made moot. It charges the
// receive-side serialization-plane emulation Open would (Compressor.Skip)
// and counts the body as Superseded, which is not a drop.
func (p *Port) Discard(h *message.Header) {
	framed, err := p.broker.store.Get(h.ObjectID)
	if err != nil {
		p.broker.health.dropStoreMiss.Add(1)
		return
	}
	p.broker.compressor.Skip(framed)
	p.broker.release(h.ObjectID)
	p.broker.health.superseded.Add(1)
}

// Open materializes a header NextHeader returned: it fetches, decompresses
// and decodes the body. The receiver owns the object-store reference, so it
// is released on every path — including corrupt bodies that fail to unpack
// or unmarshal. Such an error is already counted in the drop taxonomy
// (StoreMiss or RecvError), so a receive loop skips that message and carries
// on. A compressed body is decompressed into a pooled buffer, freed on the
// same paths: Unmarshal copies everything it returns out of raw.
func (p *Port) Open(h *message.Header) (*message.Message, error) {
	framed, err := p.broker.store.Get(h.ObjectID)
	if err != nil {
		p.broker.health.dropStoreMiss.Add(1)
		return nil, fmt.Errorf("broker recv at %s: %w", p.name, err)
	}
	defer p.broker.release(h.ObjectID)
	if p.broker.materializeHook != nil {
		p.broker.materializeHook()
	}
	buf := serialize.GetBuf(serialize.UnpackedLen(framed))
	defer serialize.FreeBuf(buf)
	raw, err := p.broker.compressor.UnpackInto(buf, framed)
	if err != nil {
		p.broker.health.dropRecvError.Add(1)
		return nil, fmt.Errorf("broker recv at %s: %w", p.name, err)
	}
	body, err := serialize.Unmarshal(raw)
	if err != nil {
		p.broker.health.dropRecvError.Add(1)
		return nil, fmt.Errorf("broker recv at %s: %w", p.name, err)
	}
	p.broker.health.receives.Add(1)
	if h.CreatedNanos > 0 {
		p.broker.health.delivery.Observe(time.Duration(time.Now().UnixNano() - h.CreatedNanos))
	}
	return &message.Message{Header: h, Body: body}, nil
}

// Pending reports how many undelivered headers wait in this client's ID
// queue. No program reads it; it is the queue-depth seam of the tests in
// broker_test.go, backpressure_test.go, fabric's wire_test.go and core's
// aggregate_test.go, dispatch_test.go, explorer_test.go, pushwindow_test.go
// and recvloop_test.go.
func (p *Port) Pending() int { return p.idQueue.Len() }
