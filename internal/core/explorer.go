package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/buffer"
	"xingtian/internal/message"
	"xingtian/internal/queue"
)

// Explorer is the explorer process of Fig. 2(a): a rollout worker thread
// produces rollout fragments into the send buffer, and the sender thread
// pushes them into the shared-memory communicator immediately. The receive
// buffer is the port's ID queue: between fragments the worker drains it,
// installing only the newest weights snapshot and releasing the ones it
// superseded unread. Every install goes through Agent.SetWeights; sparse
// deltas are first applied to the explorer's own mirror of the agent's
// weights. The explorer routes each rollout itself (route), to the fused
// learner or a learn replica, at most a window ahead of that learner's acks.
type Explorer struct {
	id         int32
	name       string
	agent      Agent
	port       *broker.Port
	sendBuf    *buffer.Buffer
	rolloutLen int

	wg      sync.WaitGroup
	stopped chan struct{}
	stopOne sync.Once
	failed  chan struct{}
	failOne sync.Once

	mu             sync.Mutex
	stepsGenerated int64
	lastErr        error

	// Touched only by the worker thread. awaitingVersion holds an on-policy
	// agent after each rollout until the next weights message arrives.
	awaitingVersion bool
	inbox           []*message.Header
	mirror          weightMirror
	route           dispatch
	statsAt         time.Time // when the last statistics message went out
}

// ExplorerName formats the canonical client name for an explorer ID.
func ExplorerName(id int32) string { return fmt.Sprintf("explorer-%d", id) }

// LearnerName is the canonical client name of the learner process.
const LearnerName = "learner"

// ControllerName is the canonical client name of the center controller.
const ControllerName = "controller"

// DefaultMaxInflight is W, the rollouts an explorer may have un-acked at each
// learner; only that learner's ack makes room. The paper's channel pushes
// every rollout at once, but its store is finite: the window bounds what
// waits for each learner, so a slow one holds its rollouts back, unqueued.
const DefaultMaxInflight = 4

// statsEvery is the least time between two statistics messages of one
// explorer: the controller keeps only each node's newest, so one per
// rollout would be wasted frames.
const statsEvery = 100 * time.Millisecond

// NewExplorer builds an explorer attached to the given broker port.
func NewExplorer(id int32, agent Agent, port *broker.Port, rolloutLen int) *Explorer {
	if rolloutLen <= 0 {
		rolloutLen = 200
	}
	return &Explorer{
		id:         id,
		name:       ExplorerName(id),
		agent:      agent,
		port:       port,
		sendBuf:    buffer.New(),
		rolloutLen: rolloutLen,
		route: dispatch{
			replicas: []string{LearnerName},
			live:     []string{LearnerName},
			maxStale: StalenessUnbounded,
			window:   DefaultMaxInflight,
			lanes:    make(map[string]*lane),
			counts:   &dispatchCounts{},
		},
		stopped: make(chan struct{}),
		failed:  make(chan struct{}),
	}
}

// SetMaxInflight sets the window at each learner, as Config.MaxInflight
// does: 0 = DefaultMaxInflight, < 0 = no window. Call before Start.
func (e *Explorer) SetMaxInflight(n int) { e.route.window = cmp.Or(n, DefaultMaxInflight) }

// Start launches the explorer's sender and worker threads.
func (e *Explorer) Start() {
	e.wg.Add(2)
	go e.senderLoop()
	go e.workerLoop()
}

// senderLoop monitors the send buffer's header queue and pushes each staged
// message into the communicator the moment it appears.
func (e *Explorer) senderLoop() {
	defer e.wg.Done()
	for {
		m, err := e.sendBuf.Next()
		if err != nil {
			return
		}
		if err := e.port.Send(m); err != nil {
			if errors.Is(err, queue.ErrClosed) {
				return // channel torn down during shutdown
			}
			e.fail(fmt.Errorf("explorer %d send: %w", e.id, err))
			return
		}
	}
}

// workerLoop is the rollout worker thread.
func (e *Explorer) workerLoop() {
	defer e.wg.Done()
	defer e.sendBuf.Close()
	for {
		select {
		case <-e.stopped:
			return
		default:
		}

		// Apply what waits in the receive queue, waiting while no rollout
		// may be made. Note the asymmetry the paper exploits: the
		// *transmission* of the previous fragment already happened on the
		// sender thread while this worker interacted with the environment.
		if !e.drainReceived() {
			return
		}

		batch, err := e.agent.Rollout(e.rolloutLen)
		if err != nil {
			e.fail(fmt.Errorf("explorer %d rollout: %w", e.id, err))
			return
		}
		batch.ExplorerID = e.id
		e.mu.Lock()
		e.stepsGenerated += int64(len(batch.Steps))
		generated := e.stepsGenerated
		e.mu.Unlock()
		if !e.ship(batch) {
			return
		}
		e.awaitingVersion = e.agent.OnPolicy() // on-policy sync

		// Periodic statistics to the center controller (§3.2.2): workhorse
		// threads put stats messages into the local send buffer and the
		// asynchronous channel does the rest. The first rollout's go out at
		// once, later ones at most every statsEvery.
		if now := time.Now(); now.Sub(e.statsAt) >= statsEvery {
			e.statsAt = now
			episodes, meanReturn := e.agent.EpisodeStats()
			if err := e.sendBuf.Put(message.New(message.TypeStats, e.name, []string{ControllerName},
				&message.StatsPayload{
					Node:           e.name,
					Episodes:       episodes,
					MeanReturn:     meanReturn,
					StepsGenerated: generated,
					UnixNanos:      now.UnixNano(),
				})); err != nil {
				return
			}
		}
	}
}

// ship stages one rollout for the sender thread to the learner route picks,
// keeping it in that learner's window until acked. A rollout with no live
// replica to go to is shed: the slot supervisors decide whether that is
// terminal. It returns false when the send buffer is closed.
func (e *Explorer) ship(b *message.RolloutBody) bool {
	r := &e.route
	if len(r.live) == 0 {
		r.counts.staleDrops.Add(1)
		return true
	}
	dst := r.peek(b.WeightsVersion)
	r.next++
	m := message.New(message.TypeRollout, e.name, []string{dst}, b)
	// The header ack: brokers ledger this version per source so the fused
	// learner's weight plane knows which base each explorer holds, and learn
	// replicas forward it to the broadcaster's.
	m.Header.WeightsVersion = b.WeightsVersion
	if err := e.sendBuf.Put(m); err != nil {
		return false
	}
	r.counts.dispatched.Add(1)
	r.retain(dst, m.Header.ID, b)
	return true
}

// drainReceived applies what waits in the port's ID queue, then goes on
// applying what arrives while the next rollout may not be made: an
// on-policy agent awaits a newer version, or its learner's window is full
// (until it expires). It returns false when the explorer should shut down.
func (e *Explorer) drainReceived() bool {
	for {
		closed := false
		for {
			h, err := e.port.NextHeader(false)
			if err != nil {
				closed = !errors.Is(err, queue.ErrEmpty)
				break
			}
			e.inbox = append(e.inbox, h)
		}
		if !e.applyInbox() || closed {
			return false
		}
		wait := e.route.room(e.agent.WeightsVersion())
		if wait == 0 && !e.awaitingVersion {
			return true
		}
		select {
		case <-e.stopped:
			return false // woken by a teardown nudge
		default:
		}
		h, err := e.port.NextHeaderWithin(wait) // 0: until weights arrive
		if errors.Is(err, queue.ErrTimeout) {
			continue
		}
		if err != nil {
			return false
		}
		e.inbox = append(e.inbox, h)
	}
}

// applyInbox empties the inbox in order. Every weights-class message queued
// before the newest dense snapshot is discarded unread: SetWeights replaces
// the whole model, so installing that snapshot alone leaves the agent where
// installing each message in turn would. Everything else is opened and
// applied; a body that fails to open is skipped (the broker counts it). Any
// weights-class message, discarded or not, ends an on-policy agent's wait
// for a newer version (a delta that fails to apply is NACKed, which
// guarantees a dense follow-up). ok turns false once the explorer should
// shut down; the headers after that point are opened and dropped, which
// releases their references.
func (e *Explorer) applyInbox() (ok bool) {
	newest := -1
	for i, h := range e.inbox {
		if h.Type == message.TypeWeights {
			newest = i
		}
	}
	ok = true
	for i, h := range e.inbox {
		e.inbox[i] = nil
		if h.Type.WeightsClass() {
			e.awaitingVersion = false
			e.route.seen = max(e.route.seen, h.WeightsVersion)
			if i < newest {
				e.port.Discard(h)
				continue
			}
		}
		m, err := e.port.Open(h)
		if err == nil && ok {
			ok = e.apply(m)
		}
	}
	e.inbox = e.inbox[:0]
	return ok
}

// apply processes one received message; it returns false on shutdown.
func (e *Explorer) apply(m *message.Message) bool {
	switch body := m.Body.(type) {
	case *message.WeightsPayload:
		if err := e.agent.SetWeights(body); err != nil {
			e.fail(fmt.Errorf("explorer %d set weights: %w", e.id, err))
			return false
		}
		e.mirror.setDense(body)
	case *message.WeightsDeltaPayload:
		if err := e.installDelta(body); err != nil {
			// NACK: ask the broadcast's producer for a dense resync and keep
			// sampling on the current weights. Failing hard here would turn
			// every restart-induced stale delta into a supervision cycle. The
			// NACK goes to the delta's Src — the learner in the fused loop,
			// the broadcast fragment in a fragment topology.
			nack := message.New(message.TypeControl, e.name, []string{m.Header.Src},
				&message.ControlPayload{Kind: message.ControlWeightsResync})
			if perr := e.sendBuf.Put(nack); perr != nil {
				return false
			}
		}
	case *message.ControlPayload:
		switch body.Kind {
		case message.ControlShutdown:
			e.stopOne.Do(func() { close(e.stopped) })
			return false
		case message.ControlRolloutAck:
			if id, ok := body.Acked[e.name]; ok {
				e.route.ack(m.Header.Src, uint64(id))
			}
		case message.ControlQuarantine:
			return e.quarantine(body.Peer)
		case message.ControlRejoin:
			e.route.rejoin(body.Peer)
		}
	}
	return true
}

// quarantine takes a replica out of the rotation and replays what it has
// not acked to the survivors, under the staleness bound the replicas apply
// at ingest: an entry that aged past it while in flight is shed, not
// replayed. Acks are coalesced, so a rollout the replica took just before
// it died is replayed too — delivery is at-least-once, which off-policy
// replicas absorb and the bound caps for on-policy ones. It returns false
// when the send buffer is closed.
func (e *Explorer) quarantine(peer string) bool {
	r := &e.route
	i := slices.Index(r.live, peer)
	if i < 0 {
		return true // fused, or a duplicate quarantine
	}
	r.live = slices.Delete(r.live, i, i+1)
	var pend []inflightRollout
	if l := r.lanes[peer]; l != nil {
		pend = l.ring
	}
	delete(r.lanes, peer)
	for _, f := range pend {
		if r.maxStale >= 0 && r.seen-f.body.WeightsVersion > int64(r.maxStale) {
			r.counts.staleDrops.Add(1)
			continue
		}
		if !e.ship(f.body) {
			return false
		}
		r.counts.redispatches.Add(1)
	}
	return true
}

// installDelta advances the mirror by d in place and installs the advanced
// vector through Agent.SetWeights, empty version bumps included, so the
// agent's version and its header ack move with every delta. A delta that
// does not apply leaves the mirror unchanged; a failed install leaves it
// ahead of the agent, so it is invalidated.
func (e *Explorer) installDelta(d *message.WeightsDeltaPayload) error {
	if err := e.mirror.applyDelta(d); err != nil {
		return err
	}
	e.mirror.install = message.WeightsPayload{Version: d.Version, Data: e.mirror.flat}
	if err := e.agent.SetWeights(&e.mirror.install); err != nil {
		e.mirror.version = mirrorInvalid
		return err
	}
	return nil
}

// dispatch is an explorer's half of the dataflow (DESIGN.md §5h, §5i): it
// picks the learner each rollout goes to and holds the window at each. Only
// the worker thread touches it.
type dispatch struct {
	replicas []string // every learner, in name order
	live     []string // the rotation: learners not quarantined, in name order
	maxStale int
	next     int
	// seen is the newest weights version the explorer has received, the
	// committed version its replays are held to the bound against.
	seen int64
	// window is W, the rollouts each learner may have un-acked (< 0: no
	// window, and nothing is kept); failover keeps expired ones for replay.
	window   int
	failover bool
	lanes    map[string]*lane
	counts   *dispatchCounts
}

// lane is the window at one learner: its un-acked rollouts, oldest first,
// the first lost of them expired and kept only for a replay. since is the
// later of its last ack and the last send into an empty window.
type lane struct {
	ring  []inflightRollout
	lost  int
	since time.Time
}

// inflightCap bounds a ring under failover, which keeps expired rollouts;
// rolling a droppable rollout off loses nothing the channel guarantees.
const inflightCap = 128

// inflightRollout is one un-acked rollout. Bodies are plain Go values (no
// store references), so keeping one costs memory only.
type inflightRollout struct {
	id   uint64
	body *message.RolloutBody
}

// dispatchCounts tallies the rollouts of every explorer and learn-replica
// incarnation: sent (replays included), shed by the staleness bound or for
// want of a live replica, and replayed off a quarantined replica's ring.
type dispatchCounts struct {
	dispatched, staleDrops, redispatches atomic.Int64
}

// peek names the learner a rollout of weights version v goes to. Strict
// assignment order (K = 0) routes by version: every rollout of one version
// reaches the same replica, so an algorithm that trains on one batch per
// explorer at the current policy (PPO) sees the complete set — per-rollout
// round-robin would split it and no replica could ever train. Otherwise each
// explorer round-robins, starting at its own id, which balances load.
func (r *dispatch) peek(v int64) string {
	if r.maxStale == 0 {
		return r.live[int(v)%len(r.live)]
	}
	return r.live[r.next%len(r.live)]
}

// retain keeps a rollout sent to dst in dst's window until dst acks it.
func (r *dispatch) retain(dst string, id uint64, b *message.RolloutBody) {
	if r.window < 0 {
		return
	}
	l := r.lanes[dst]
	if l == nil {
		l = &lane{}
		r.lanes[dst] = l
	}
	if len(l.ring) == l.lost {
		l.since = time.Now()
	}
	if l.ring = append(l.ring, inflightRollout{id: id, body: b}); len(l.ring) > inflightCap {
		l.ring, l.lost = slices.Delete(l.ring, 0, 1), max(0, l.lost-1)
	}
}

// ack releases the rollouts src has taken, or shed, up to header ID id. One
// explorer's IDs rise with time and its deliveries to a learner arrive in
// order, so the high-water mark covers every earlier one, those the channel
// dropped included. A retired incarnation's late ack cannot release what its
// successor was sent: that was sent later, under higher IDs.
func (r *dispatch) ack(src string, id uint64) {
	if l := r.lanes[src]; l != nil {
		i := 0
		for i < len(l.ring) && l.ring[i].id <= id {
			i++
		}
		l.ring, l.lost, l.since = slices.Delete(l.ring, 0, i), max(0, l.lost-i), time.Now()
	}
}

// room returns 0 when the learner a rollout of weights version v goes to
// has space in its window, else how long until it may. A full window that
// no ack has moved for pushRetry has lost its rollouts in the channel (a
// budget decline, a shed, an outage eviction) with no later delivery left
// to be acked, so they expire, leaving the ring unless failover keeps them.
func (r *dispatch) room(v int64) time.Duration {
	if r.window < 0 || len(r.live) == 0 {
		return 0
	}
	l := r.lanes[r.peek(v)]
	if l == nil || len(l.ring)-l.lost < r.window {
		return 0
	}
	if wait := time.Until(l.since.Add(pushRetry)); wait > 0 {
		return wait
	}
	l.lost = len(l.ring)
	if !r.failover {
		l.ring, l.lost = slices.Delete(l.ring, 0, l.lost), 0
	}
	return 0
}

// rejoin returns a respawned replica to the rotation in name order, so K = 0
// version routing stays the same for a given live set.
func (r *dispatch) rejoin(peer string) {
	if slices.Contains(r.live, peer) {
		return
	}
	live := make([]string, 0, len(r.live)+1)
	for _, n := range r.replicas {
		if n == peer || slices.Contains(r.live, n) {
			live = append(live, n)
		}
	}
	r.live = live
}

func (e *Explorer) fail(err error) {
	e.mu.Lock()
	if e.lastErr == nil {
		e.lastErr = err
	}
	e.mu.Unlock()
	e.failOne.Do(func() { close(e.failed) })
}

// Failed is closed when the explorer records its first error — the signal
// the session's supervisor selects on to restart the slot. A clean shutdown
// never closes it.
func (e *Explorer) Failed() <-chan struct{} { return e.failed }

// Err returns the first error the explorer hit, if any.
func (e *Explorer) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// StepsGenerated reports the number of rollout steps produced so far.
func (e *Explorer) StepsGenerated() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stepsGenerated
}

// EpisodeStats proxies the agent's episode statistics.
func (e *Explorer) EpisodeStats() (int64, float64) { return e.agent.EpisodeStats() }

// Stop signals the explorer threads to finish: the worker observes the
// stopped channel between fragments. A worker blocked waiting for weights
// or window room wakes on the next message to its port or when the broker closes its ID
// queue, so callers must send it one (a ControlDrain nudge), unregister the
// port, or stop the broker before Join.
func (e *Explorer) Stop() {
	e.stopOne.Do(func() { close(e.stopped) })
}

// Join waits for both explorer threads to exit. Call after Stop and after
// the owning broker has closed this client's ID queue.
func (e *Explorer) Join() {
	e.wg.Wait()
}
