package core

import (
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
// weights. In a fragment topology the explorer also routes each rollout to
// a learn replica itself (route).
type Explorer struct {
	id          int32
	name        string
	agent       Agent
	port        *broker.Port
	sendBuf     *buffer.Buffer
	rolloutLen  int
	maxInflight int

	wg      sync.WaitGroup
	stopped chan struct{}
	stopOne sync.Once
	failed  chan struct{}
	failOne sync.Once

	mu             sync.Mutex
	stepsGenerated int64
	lastErr        error

	// Touched only by the worker thread.
	fragmentsSinceWeights int
	inbox                 []*message.Header
	mirror                weightMirror
	route                 dispatch
	statsAt               time.Time // when the last statistics message went out
}

// ExplorerName formats the canonical client name for an explorer ID.
func ExplorerName(id int32) string { return fmt.Sprintf("explorer-%d", id) }

// LearnerName is the canonical client name of the learner process.
const LearnerName = "learner"

// ControllerName is the canonical client name of the center controller.
const ControllerName = "controller"

// DefaultMaxInflight bounds un-acknowledged rollout fragments per explorer.
// Weight broadcasts act as credits: the paper's channel pushes aggressively
// but its shared-memory store is finite, which imposes exactly this kind of
// flow control. Without it a fast explorer would burn CPU and memory
// producing rollouts a saturated learner must drop.
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
		id:          id,
		name:        ExplorerName(id),
		agent:       agent,
		port:        port,
		sendBuf:     buffer.New(),
		rolloutLen:  rolloutLen,
		maxInflight: DefaultMaxInflight,
		stopped:     make(chan struct{}),
		failed:      make(chan struct{}),
	}
}

// SetMaxInflight overrides the flow-control window (<= 0 disables it).
// Call before Start.
func (e *Explorer) SetMaxInflight(n int) { e.maxInflight = n }

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

		// Apply any weights waiting in the receive queue. Off-policy agents
		// drain opportunistically; on-policy agents block after shipping a
		// fragment so every fragment uses the latest parameters. Note the
		// asymmetry the paper exploits: the *transmission* of the previous
		// fragment already happened asynchronously on the sender thread
		// while this worker was still interacting with the environment.
		mustWait := e.agent.OnPolicy() && e.fragmentsSinceWeights > 0
		if e.maxInflight > 0 && e.fragmentsSinceWeights >= e.maxInflight {
			mustWait = true // credit exhausted: wait for a weights broadcast
		}
		if !e.drainReceived(mustWait) {
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
		e.fragmentsSinceWeights++

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

// ship stages one rollout for the sender thread: to the learner when fused,
// else to the learn replica route picks, kept under failover until that
// replica acks it. A fragment-topology rollout with no live replica to go
// to is shed: the slot supervisors decide whether that is terminal, and the
// explorer's credit refills on the next broadcast. It returns false when
// the send buffer is closed.
func (e *Explorer) ship(b *message.RolloutBody) bool {
	r := &e.route
	dst := LearnerName
	if r.replicas != nil {
		if len(r.live) == 0 {
			r.counts.staleDrops.Add(1)
			return true
		}
		dst = r.pick(b.WeightsVersion)
	}
	m := message.New(message.TypeRollout, e.name, []string{dst}, b)
	// The header ack: brokers ledger this version per source so the fused
	// learner's weight plane knows which base each explorer holds, and learn
	// replicas forward it to the broadcaster's.
	m.Header.WeightsVersion = b.WeightsVersion
	if err := e.sendBuf.Put(m); err != nil {
		return false
	}
	if r.replicas != nil {
		r.counts.dispatched.Add(1)
		r.retain(dst, m.Header.ID, b)
	}
	return true
}

// drainReceived applies what waits in the port's ID queue. When block is
// true it waits until at least one weights-class message has arrived
// (on-policy synchronization, or credit exhausted), applying controls that
// arrive meanwhile as they come. It returns false when the explorer should
// shut down.
func (e *Explorer) drainReceived(block bool) bool {
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
		credited, ok := e.applyInbox()
		if !ok || closed {
			return false
		}
		if credited || !block {
			return true
		}
		select {
		case <-e.stopped:
			return false // woken by a teardown nudge
		default:
		}
		h, err := e.port.NextHeader(true)
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
// weights-class message, discarded or not, is a flow-control credit, and
// credited reports whether one arrived. ok turns false once the explorer
// should shut down; the headers after that point are opened and dropped,
// which releases their references.
func (e *Explorer) applyInbox() (credited, ok bool) {
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
			// Withholding the credit could deadlock an out-of-credit
			// explorer whose silence stops the learner from ever
			// broadcasting again.
			credited = true
			e.fragmentsSinceWeights = 0
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
	return credited, ok
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
			// the broadcast fragment in a fragment topology. The credit
			// stands: the NACK guarantees a dense follow-up.
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
		case message.ControlHeartbeat:
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
// replayed. The ack is a beat-carried high-water mark, so a rollout the
// replica ingested just before it died is replayed too — delivery is
// at-least-once, which off-policy replicas absorb and the bound caps for
// on-policy ones. It returns false when the send buffer is closed.
func (e *Explorer) quarantine(peer string) bool {
	r := &e.route
	i := slices.Index(r.live, peer)
	if i < 0 {
		return true // fused, or a duplicate quarantine
	}
	r.live = slices.Delete(r.live, i, i+1)
	pend := r.inflight[peer]
	delete(r.inflight, peer)
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

// dispatch is an explorer's half of the fragment dataflow (DESIGN.md §5h,
// §5i): it picks the learn replica each rollout goes to and, under
// failover, keeps each replica's un-acked rollouts for replay should the
// replica be quarantined. Its zero value is the fused topology, where every
// rollout goes to the learner. Only the worker thread touches it.
type dispatch struct {
	replicas []string // every learn replica, in name order
	live     []string // the rotation: replicas not quarantined, in name order
	maxStale int
	next     int
	// seen is the newest weights version the explorer has received, the
	// committed version its replays are held to the bound against.
	seen int64
	// inflight is nil without failover: the newest inflightCap rollouts
	// sent to each replica and not yet acked by its beat.
	inflight map[string][]inflightRollout
	counts   *dispatchCounts
}

// inflightCap bounds each per-replica in-flight ring. Rollouts are
// droppable traffic, so rolling the oldest entry off a full ring loses
// nothing the channel guarantees.
const inflightCap = 128

// inflightRollout is one un-acked rollout kept for replay. Bodies are plain
// Go values (no store references), so keeping one costs memory only.
type inflightRollout struct {
	id   uint64
	body *message.RolloutBody
}

// dispatchCounts tallies the fragment dataflow's rollouts across every
// explorer and learn-replica incarnation: sent to a replica (replays
// included), shed by the staleness bound or for want of a live replica,
// and replayed off a quarantined replica's ring.
type dispatchCounts struct {
	dispatched, staleDrops, redispatches atomic.Int64
}

// pick routes a rollout produced under weights version v. Strict assignment
// order (K = 0) routes by version: every rollout of one version reaches the
// same replica, so an algorithm that trains on one batch per explorer at the
// current policy (PPO) sees the complete set — per-rollout round-robin would
// split it and no replica could ever train. Otherwise each explorer
// round-robins, starting at its own id, which balances load.
func (r *dispatch) pick(v int64) string {
	if r.maxStale == 0 {
		return r.live[int(v)%len(r.live)]
	}
	dst := r.live[r.next%len(r.live)]
	r.next++
	return dst
}

// retain keeps a rollout sent to dst until dst's beat acks it (failover
// only).
func (r *dispatch) retain(dst string, id uint64, b *message.RolloutBody) {
	if r.inflight == nil {
		return
	}
	q := append(r.inflight[dst], inflightRollout{id: id, body: b})
	if len(q) > inflightCap {
		q = q[1:]
	}
	r.inflight[dst] = q
}

// ack releases the rollouts src has ingested, or shed, up to header ID id.
// One explorer's IDs rise with time and its deliveries to a replica arrive
// in order, so the high-water mark covers every earlier one. A retired
// incarnation's late beat cannot release what its successor was sent: that
// was sent later, under higher IDs.
func (r *dispatch) ack(src string, id uint64) {
	q := r.inflight[src]
	i := 0
	for i < len(q) && q[i].id <= id {
		i++
	}
	if i > 0 {
		r.inflight[src] = q[i:]
	}
}

// rejoin returns a respawned replica to the rotation in name order, so K = 0
// version routing stays the same for a given live set.
func (r *dispatch) rejoin(peer string) {
	if r.replicas == nil || slices.Contains(r.live, peer) {
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
// wakes on the next message to its port or when the broker closes its ID
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
