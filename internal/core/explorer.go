package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/buffer"
	"xingtian/internal/message"
	"xingtian/internal/queue"
	"xingtian/internal/serialize"
)

// Explorer is the explorer process of Fig. 2(a): a rollout worker thread
// produces rollout fragments into the send buffer, and the sender thread
// pushes them into the shared-memory communicator immediately. The receive
// buffer is the port's ID queue: between fragments the worker drains it,
// installing only the newest weights snapshot and releasing the ones it
// superseded unread. Every install goes through Agent.SetWeights; sparse
// deltas are first applied to the explorer's own mirror of the agent's
// weights.
type Explorer struct {
	id          int32
	agent       Agent
	port        *broker.Port
	sendBuf     *buffer.Buffer
	rolloutLen  int
	maxInflight int
	learner     string

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

// NewExplorer builds an explorer attached to the given broker port.
func NewExplorer(id int32, agent Agent, port *broker.Port, rolloutLen int) *Explorer {
	if rolloutLen <= 0 {
		rolloutLen = 200
	}
	return &Explorer{
		id:          id,
		agent:       agent,
		port:        port,
		sendBuf:     buffer.New(),
		rolloutLen:  rolloutLen,
		maxInflight: DefaultMaxInflight,
		learner:     LearnerName,
		stopped:     make(chan struct{}),
		failed:      make(chan struct{}),
	}
}

// SetMaxInflight overrides the flow-control window (<= 0 disables it).
// Call before Start.
func (e *Explorer) SetMaxInflight(n int) { e.maxInflight = n }

// SetRolloutDst overrides the destination rollout fragments are shipped to
// (default: the learner). The fragment runtime points explorers at the
// sample fragment, which applies the bounded-staleness filter and dispatches
// to learn replicas. Call before Start.
func (e *Explorer) SetRolloutDst(name string) { e.learner = name }

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
		e.mu.Unlock()

		m := message.New(message.TypeRollout, ExplorerName(e.id), []string{e.learner}, batch)
		// The header ack: brokers ledger this version per source so the
		// learner's weight plane knows which base each explorer holds.
		m.Header.WeightsVersion = batch.WeightsVersion
		if err := e.sendBuf.Put(m); err != nil {
			return
		}
		e.fragmentsSinceWeights++
		e.mu.Lock()
		generated := e.stepsGenerated
		e.mu.Unlock()

		// Periodic statistics to the center controller (§3.2.2): workhorse
		// threads put stats messages into the local send buffer and the
		// asynchronous channel does the rest.
		episodes, meanReturn := e.agent.EpisodeStats()
		stats := &message.StatsPayload{
			Node:           ExplorerName(e.id),
			Episodes:       episodes,
			MeanReturn:     meanReturn,
			StepsGenerated: generated,
			UnixNanos:      time.Now().UnixNano(),
		}
		if err := e.sendBuf.Put(message.New(message.TypeStats, ExplorerName(e.id),
			[]string{ControllerName}, stats)); err != nil {
			return
		}
	}
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
			nack := message.New(message.TypeControl, ExplorerName(e.id), []string{m.Header.Src},
				&message.ControlPayload{Kind: message.ControlWeightsResync})
			if perr := e.sendBuf.Put(nack); perr != nil {
				return false
			}
		}
	case *message.ControlPayload:
		if body.Kind == message.ControlShutdown {
			e.stopOne.Do(func() { close(e.stopped) })
			return false
		}
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

// weightMirror is the explorer's flat shadow of the weights its agent holds,
// so sparse deltas have a base vector to apply against; the mirror version
// gates deltas whose base the agent never saw (e.g. after a supervised
// restart rebuilt the explorer from scratch). Only the worker thread
// touches it.
type weightMirror struct {
	version int64
	flat    []float32
	// install is the one payload every delta install hands the agent.
	install message.WeightsPayload
}

// mirrorInvalid is the version of a mirror whose vector no longer matches
// the agent's weights: no delta's base, so every delta is refused (and
// NACKed) until a dense snapshot re-seeds it.
const mirrorInvalid = math.MinInt64

// setDense records a full snapshot the agent installed as the new base.
func (m *weightMirror) setDense(w *message.WeightsPayload) {
	m.flat = append(m.flat[:0], w.Data...)
	m.version = w.Version
}

// applyDelta advances the mirror by one delta in place. A delta that does
// not apply leaves the mirror unchanged.
func (m *weightMirror) applyDelta(d *message.WeightsDeltaPayload) error {
	if m.flat == nil {
		return fmt.Errorf("no weights applied yet, delta base %d unavailable", d.BaseVersion)
	}
	if m.version == mirrorInvalid {
		return fmt.Errorf("mirror invalidated by a failed install, delta base %d unavailable", d.BaseVersion)
	}
	if m.version != d.BaseVersion {
		return fmt.Errorf("mirror at version %d, delta expects base %d", m.version, d.BaseVersion)
	}
	if _, err := serialize.ApplyDelta(m.flat, d); err != nil {
		return err
	}
	m.version = d.Version
	return nil
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
