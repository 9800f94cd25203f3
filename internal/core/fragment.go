// Dataflow-fragment runtime: the training loop decomposed into
// independently placeable fragments in the style of MSRL, connected only by
// the existing queue/store/fabric primitives (broker ports). Three fragment
// kinds exist:
//
//   - rollout fragments — the explorers, which push each rollout straight
//     to a learn replica they pick themselves (explorer.go's dispatch);
//   - learn fragments — one Algorithm replica each, applying the topology's
//     bounded-staleness rule at ingest, training independently and pushing
//     post-train weights to the broadcast fragment;
//   - the broadcast fragment — aggregates replica weights (element-wise
//     mean of each replica's latest push), commits a new global version,
//     plans it through the §5g weight plane to every explorer and every
//     live replica in one plan (the replicas' copy is the echo), and owns
//     per-fragment checkpointing.
//
// Relaxed assignment dependencies: stages never hand-shake. A learn
// fragment trains on any rollout an explorer sent it that is at most
// Topology.MaxStaleness weight versions behind the committed version of its
// newest echo (0 = strict assignment order, negative = unbounded).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/buffer"
	"xingtian/internal/checkpoint"
	"xingtian/internal/message"
	"xingtian/internal/queue"
	"xingtian/internal/stats"
	"xingtian/internal/weightplane"
)

// heartbeatMisses is the deadline multiplier of the broadcast-side health
// detector: a replica silent for heartbeatMisses consecutive heartbeat
// intervals is suspected hung and reported for quarantine.
const heartbeatMisses = 4

// LearnFragment is the learner process of Fig. 2(a): the trainer thread
// consumes rollouts from the local receive buffer and trains whenever the
// algorithm is ready, while the receiver thread keeps that buffer filled as
// messages arrive, so rollout transmission overlaps training. As a learn
// replica it trains on what explorers send it within the staleness bound,
// pushes post-train weights to the broadcast fragment, and installs the
// aggregate echoes it receives — dense, or a delta applied to its weight
// mirror, like an explorer's broadcast. A replica keeps at most one push
// unanswered: the broadcaster's echo answers it, and trains in between only
// mark the replica dirty, so weights the broadcaster would release unread
// are never sent. The fused topology runs one as the whole learner: it
// plans the per-explorer weight broadcast itself and a sender thread pushes
// it out.
type LearnFragment struct {
	name    string
	alg     Algorithm
	port    *broker.Port
	recvBuf *buffer.Buffer

	// Fused-learner state (newFusedLearner); all zero for a replica, which
	// makes each a no-op. plane and explorers plan the broadcast, sendBuf
	// stages it for the sender thread, ckpt* save single-state checkpoints
	// every ckptEvery sessions, and the loop stops itself at maxSteps.
	plane     *weightplane.Planner
	explorers []int32
	sendBuf   *buffer.Buffer
	ckptPath  string
	ckptEvery int64
	ckptKeep  int
	maxSteps  int64

	// WaitHist, TransHist, and Series are the evaluation figures' hooks:
	// trainer waits for rollouts (Fig 8(c)), message creation → receive
	// buffer latency, and steps consumed per wall-time bucket. The session
	// merges them across replicas.
	WaitHist  *stats.Histogram
	TransHist *stats.Histogram
	Series    *stats.Series

	stepsConsumed atomic.Int64
	trainIters    atomic.Int64

	// The rollout ack (ackRollout), touched only by the trainer thread.
	ackEvery int
	taken    map[string]int

	// The replica's push window, touched only by the trainer thread:
	// unanswered marks a push no echo has answered yet, and dirty marks
	// weights trained since that push and not yet pushed. retryAfter is
	// pushRetry; tests may set it before Start. acked is the weights
	// version of the newest rollout ingested from each explorer (nil when
	// fused: the learner's broker sees the rollouts). A snapshot of it,
	// ackSent, rides ahead of a push when ackNew: an explorer is new, or
	// ackSlack versions past its last snapshot.
	unanswered bool
	dirty      bool
	retryAfter time.Duration
	acked      map[string]int64
	ackSent    map[string]int64
	ackNew     bool
	// mirror is the committed model the echoes advance; nackAt is when the
	// replica last NACKed a delta that did not apply.
	mirror weightMirror
	nackAt time.Time

	// The staleness bound, applied by the trainer thread at ingest: a
	// rollout more than maxStale versions behind committed, the version of
	// the newest echo, is shed and counted (maxStale < 0 disables it).
	// observeStaleness, when set before Start, is called with the weights
	// version and the committed version of every rollout the bound lets
	// through — the audit hook the bounded-staleness property tests use.
	maxStale         int
	committed        int64
	counts           *dispatchCounts
	observeStaleness func(rolloutVer, committedVer int64)

	// Failover plumbing (§5i). epoch is the incarnation number stamped into
	// every outbound push and heartbeat (Header.Round) so peers can discard
	// a retired incarnation's late messages; hbEvery > 0 runs the heartbeat
	// thread. activity counts trainer-loop iterations and waiting marks the
	// trainer blocked on input — together the liveness evidence: a beat is
	// sent only while the trainer progresses or idles at the receive buffer,
	// so a trainer wedged inside a training step falls silent and trips the
	// broadcast-side deadline detector.
	epoch    int32
	hbEvery  time.Duration
	activity atomic.Int64
	waiting  atomic.Bool

	wg       sync.WaitGroup
	stopped  chan struct{}
	stopOne  sync.Once
	failed   chan struct{}
	failOne  sync.Once
	recvDone chan struct{}
	// Tests may set these before Start: recvHold runs on the receiver thread
	// after its loop ends and before recvDone closes; recvFilter sees every
	// message received and loses those it rejects.
	recvHold   func()
	recvFilter func(*message.Message) bool

	mu      sync.Mutex
	lastErr error
}

// NewLearnFragment builds learn replica idx around an algorithm and port.
// window is the explorers' window at it, as Config.MaxInflight gives it.
func NewLearnFragment(idx int, alg Algorithm, port *broker.Port, window int, bucket time.Duration) *LearnFragment {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &LearnFragment{
		name:       LearnName(idx),
		alg:        alg,
		port:       port,
		recvBuf:    buffer.New(),
		ackEvery:   (max(cmp.Or(window, DefaultMaxInflight), 0) + 1) / 2,
		taken:      make(map[string]int),
		retryAfter: pushRetry,
		maxStale:   StalenessUnbounded,
		counts:     &dispatchCounts{},
		WaitHist:   stats.NewHistogram(),
		TransHist:  stats.NewHistogram(),
		Series:     stats.NewSeries(bucket),
		stopped:    make(chan struct{}),
		failed:     make(chan struct{}),
		recvDone:   make(chan struct{}),
	}
}

// newFusedLearner builds the fused topology's learner: one learn loop named
// LearnerName that broadcasts to every explorer through its own weight
// plane, checkpoints its algorithm, and stops at cfg.MaxSteps.
func newFusedLearner(alg Algorithm, port *broker.Port, cfg Config) *LearnFragment {
	l := NewLearnFragment(0, alg, port, cfg.MaxInflight, cfg.SeriesBucket)
	l.name = LearnerName
	l.plane = weightplane.New(cfg.weightPlane())
	l.explorers = make([]int32, cfg.NumExplorers)
	for i := range l.explorers {
		l.explorers[i] = int32(i)
	}
	l.sendBuf = buffer.New()
	l.ckptPath, l.ckptEvery, l.ckptKeep = cfg.CheckpointPath, cfg.CheckpointEvery, cfg.CheckpointKeep
	if l.ckptEvery <= 0 {
		l.ckptEvery = 100
	}
	l.maxSteps = cfg.MaxSteps
	return l
}

// SetFailover stamps the replica's incarnation epoch and arms the heartbeat
// thread (hbEvery > 0). Call before Start.
func (l *LearnFragment) SetFailover(epoch int32, hbEvery time.Duration) {
	l.epoch = epoch
	l.hbEvery = hbEvery
}

// Failed is closed when the replica records an error (never on a clean
// Stop); the slot supervisor selects on it.
func (l *LearnFragment) Failed() <-chan struct{} { return l.failed }

// RecvDone is closed when the receiver thread exits; the supervisor waits on
// it before handing the replica's port to a new incarnation, so two receiver
// threads never compete for one queue.
func (l *LearnFragment) RecvDone() <-chan struct{} { return l.recvDone }

// SetStalenessObserver installs the per-rollout staleness audit hook. Call
// before Start. Only tests install one: TestFragmentStalenessBound and
// TestReplicaIngestStalenessBound audit every ingested rollout through it.
func (l *LearnFragment) SetStalenessObserver(fn func(rolloutVer, committedVer int64)) {
	l.observeStaleness = fn
}

// Start launches the receiver and trainer threads, plus the fused learner's
// sender thread and the heartbeat thread when failover armed one.
func (l *LearnFragment) Start() {
	l.wg.Add(2)
	go l.receiverLoop()
	go l.trainerLoop()
	if l.sendBuf != nil {
		l.wg.Add(1)
		go l.senderLoop()
	}
	if l.hbEvery > 0 {
		l.wg.Add(1)
		go l.heartbeatLoop()
	}
}

// heartbeatLoop piggybacks liveness on the control plane: every hbEvery it
// sends a ControlHeartbeat to the broadcaster — but only when the trainer
// either made progress since the last beat or is parked at the receive
// buffer waiting for input. A trainer wedged *inside* a training step is
// neither, so the replica falls silent and the broadcaster's deadline
// detector quarantines it.
func (l *LearnFragment) heartbeatLoop() {
	defer l.wg.Done()
	tick := time.NewTicker(l.hbEvery)
	defer tick.Stop()
	var lastSeen int64 = -1
	for {
		select {
		case <-l.stopped:
			return
		case <-tick.C:
		}
		act := l.activity.Load()
		if act == lastSeen && !l.waiting.Load() {
			continue
		}
		lastSeen = act
		m := message.New(message.TypeControl, l.name, []string{BroadcastName},
			&message.ControlPayload{Kind: message.ControlHeartbeat})
		m.Header.Round = l.epoch
		// A failed beat is the replica's error, so the supervisor sees the
		// real cause, not a quarantine of a replica that stopped beating.
		if !l.send(m, "heartbeat") {
			return
		}
	}
}

// senderLoop pushes the fused learner's staged weight broadcasts out the
// moment the trainer stages them.
func (l *LearnFragment) senderLoop() {
	defer l.wg.Done()
	for {
		m, err := l.sendBuf.Next()
		if err != nil || !l.send(m, "send") {
			return
		}
	}
}

func (l *LearnFragment) receiverLoop() {
	defer l.wg.Done()
	defer close(l.recvDone)
	if l.recvHold != nil {
		defer l.recvHold()
	}
	for {
		m, err := l.port.Recv()
		if errors.Is(err, queue.ErrClosed) {
			l.recvBuf.Close()
			return
		}
		if err != nil || (l.recvFilter != nil && !l.recvFilter(m)) {
			continue // an unreadable body (the broker counted it), or lost
		}
		if m.Header.Type == message.TypeRollout {
			l.TransHist.Observe(time.Duration(time.Now().UnixNano() - m.Header.CreatedNanos))
		}
		if err := l.recvBuf.Put(m); err != nil {
			return
		}
	}
}

// trainerLoop is the trainer thread: ingest what has arrived, train when
// the algorithm is ready, publish the result, and block only when there is
// truly nothing to do — the time spent in that block is the paper's
// "XingTian Actual Wait".
func (l *LearnFragment) trainerLoop() {
	defer l.wg.Done()
	if l.sendBuf != nil {
		defer l.sendBuf.Close()
	}
	for {
		select {
		case <-l.stopped:
			return
		default:
		}
		l.activity.Add(1)

		ingested := l.drainNonBlocking()

		res, ok, err := l.alg.TryTrain()
		if err != nil {
			l.fail(fmt.Errorf("%s train: %w", l.name, err))
			return
		}
		if !ok {
			if ingested == 0 {
				m, err := l.idleWait()
				if errors.Is(err, queue.ErrTimeout) {
					// No echo answered the push within retryAfter: the push
					// or its echo was lost, fenced, unreadable or died with
					// the broadcaster's machine. Push the current weights
					// again, or the push window stays shut and the replica's
					// training never reaches the committed model.
					if !l.push() {
						return
					}
					continue
				}
				if err != nil || !l.ingest(m) {
					return
				}
			}
			continue
		}

		iters := l.trainIters.Add(1)
		consumed := l.stepsConsumed.Add(int64(res.StepsConsumed))
		l.Series.Add(float64(res.StepsConsumed))
		if res.Broadcast {
			if !l.publish(res.Targets) {
				return
			}
		}
		if l.ckptPath != "" && iters%l.ckptEvery == 0 {
			if err := l.saveCheckpoint(); err != nil {
				l.fail(fmt.Errorf("%s checkpoint: %w", l.name, err))
				return
			}
		}
		if l.maxSteps > 0 && consumed >= l.maxSteps {
			l.stopOne.Do(func() { close(l.stopped) })
			return
		}
	}
}

// ackSlack is how far an explorer's ack may move before a replica forwards
// it: a quarter of the weight plane's stale gap, so a forwarded ack is never
// old enough to force a dense resync, at a snapshot per ackSlack versions
// rather than one per push.
const ackSlack = weightplane.DefaultStaleGap / 4

// pushRetry bounds a replica's idle wait while its push is unanswered. It
// is several times the fabric's traced delivery p99 (≈ 20–30 ms on the
// 4-machine grid), so a push is repeated only when it or its echo is gone.
const pushRetry = 100 * time.Millisecond

// idleWait blocks the trainer for its next message — the paper's "XingTian
// Actual Wait" — and, while a push is unanswered, for at most retryAfter.
func (l *LearnFragment) idleWait() (*message.Message, error) {
	waitStart := time.Now()
	l.waiting.Store(true)
	var m *message.Message
	var err error
	if l.unanswered {
		m, err = l.recvBuf.NextTimeout(l.retryAfter)
	} else {
		m, err = l.recvBuf.Next()
	}
	l.waiting.Store(false)
	if err == nil || errors.Is(err, queue.ErrTimeout) {
		l.WaitHist.Observe(time.Since(waitStart))
	}
	return m, err
}

// drainCap bounds how many messages one trainer cycle ingests before it
// must attempt to train again — otherwise a producer that stays ahead of
// PrepareData would starve training entirely.
const drainCap = 16

func (l *LearnFragment) drainNonBlocking() int {
	n := 0
	for n < drainCap {
		m, err := l.recvBuf.TryNext()
		if err != nil {
			return n
		}
		if !l.ingest(m) {
			return n
		}
		n++
	}
	return n
}

// ingest routes one received message; it returns false on shutdown.
func (l *LearnFragment) ingest(m *message.Message) bool {
	switch body := m.Body.(type) {
	case *message.RolloutBody:
		if !l.ackRollout(m.Header) {
			return false
		}
		if l.acked != nil {
			v := m.Header.WeightsVersion
			l.acked[m.Header.Src] = v
			if sent, ok := l.ackSent[m.Header.Src]; !ok || v-sent >= ackSlack {
				l.ackNew = true
			}
		}
		v := m.Header.WeightsVersion
		if l.maxStale >= 0 && l.committed-v > int64(l.maxStale) {
			// Older than the bound allows: shed it, acked all the same.
			l.counts.staleDrops.Add(1)
			return true
		}
		if l.observeStaleness != nil {
			l.observeStaleness(v, l.committed)
		}
		l.alg.PrepareData(body)
	case *message.WeightsPayload:
		l.mirror.setDense(body)
		return l.installEcho()
	case *message.WeightsDeltaPayload:
		if l.mirror.applyDelta(body) != nil {
			// NACK, at most once per retryAfter, so the next plan is dense.
			// The push stays unanswered: pushRetry covers a lost NACK.
			if time.Since(l.nackAt) < l.retryAfter {
				return true
			}
			l.nackAt = time.Now()
			return l.send(message.New(message.TypeControl, l.name, []string{m.Header.Src},
				&message.ControlPayload{Kind: message.ControlWeightsResync}), "resync request")
		}
		return l.installEcho()
	case *message.ControlPayload:
		switch body.Kind {
		case message.ControlShutdown:
			l.stopOne.Do(func() { close(l.stopped) })
			return false
		case message.ControlDrain:
			// Teardown nudge for a *retired* incarnation whose receiver is
			// blocked: its recvBuf is closed, so the Put fails and the
			// receiver exits. A live incarnation's buffer accepts the Put and
			// the nudge is ignored here.
		case message.ControlWeightsResync:
			// Explorer NACK to the fused learner: its next broadcast must be
			// a dense snapshot.
			l.plane.MarkStale(m.Header.Src)
		}
	}
	return true
}

// ackRollout counts a rollout taken off the receive buffer against its
// explorer and, once ackEvery = ⌈W/2⌉ have been taken since the last ack,
// acks the explorer this one's header ID, which makes room in its window (a
// window of W always fills to ⌈W/2⌉ taken or expires). It returns false on
// shutdown.
func (l *LearnFragment) ackRollout(h *message.Header) bool {
	l.taken[h.Src]++
	if l.ackEvery == 0 || l.taken[h.Src] < l.ackEvery {
		return true
	}
	l.taken[h.Src] = 0
	return l.send(message.New(message.TypeControl, l.name, []string{h.Src},
		&message.ControlPayload{Kind: message.ControlRolloutAck, Acked: map[string]int64{h.Src: int64(h.ID)}}), "rollout ack")
}

// installEcho installs the mirror an aggregate echo just advanced, version
// and all; the echo answers the replica's push. A replica that trained since
// pushes first, so the broadcaster folds its newest weights before the echo
// overwrites them. It returns false on shutdown.
func (l *LearnFragment) installEcho() bool {
	if l.dirty {
		if !l.push() {
			return false
		}
	} else {
		l.unanswered = false
	}
	if err := l.alg.RestoreWeights(l.mirror.version, l.mirror.flat); err != nil {
		l.fail(fmt.Errorf("%s install aggregate: %w", l.name, err))
		return false
	}
	// Echoes reorder only across a broadcaster takeover, and the standby
	// starts above every version a survivor saw: the largest is the newest.
	l.committed = max(l.committed, l.mirror.version)
	return true
}

// publish hands the algorithm's current weights on and returns false when
// the channel is torn down. A replica pushes them to the broadcast fragment
// inline, unless its previous push is unanswered: then it only marks itself
// dirty, and the echo that answers the push sends them. The fused learner
// plans the broadcast to targets (nil = every explorer) through its weight
// plane — dense snapshot, delta against the base each group last got, or a
// pure version bump — and stages it for the sender thread.
func (l *LearnFragment) publish(targets []int32) bool {
	if l.plane == nil {
		if l.unanswered {
			// The answering echo sends these weights.
			l.dirty = true
			return true
		}
		return l.push()
	}
	w := l.alg.Weights()
	if targets == nil {
		targets = l.explorers
	}
	if len(targets) == 0 {
		return true
	}
	dst := make([]string, len(targets))
	for i, id := range targets {
		dst[i] = ExplorerName(id)
	}
	for _, o := range l.plane.Plan(w.Data, w.Version, dst, l.port.AckedWeights()) {
		m := message.New(o.Type, l.name, o.Dsts, o.Body)
		m.Header.WeightsVersion = w.Version
		m.Header.BaseVersion = o.BaseVersion
		_ = l.sendBuf.Put(m)
	}
	return true
}

// push sends the replica's current weights to the broadcast fragment and
// leaves the push unanswered. It returns false when the channel is torn
// down.
func (l *LearnFragment) push() bool {
	if l.ackNew {
		snap := maps.Clone(l.acked)
		if !l.send(message.New(message.TypeControl, l.name, []string{BroadcastName},
			&message.ControlPayload{Kind: message.ControlAckSnapshot, Acked: snap}), "ack snapshot") {
			return false
		}
		l.ackSent, l.ackNew = snap, false
	}
	w := l.alg.Weights()
	m := message.New(message.TypeWeights, l.name, []string{BroadcastName}, w)
	m.Header.WeightsVersion = w.Version
	m.Header.Round = l.epoch
	if !l.send(m, "push") {
		return false
	}
	l.unanswered, l.dirty = true, false
	return true
}

// send sends m and returns false when the channel is torn down; any other
// failure is the replica's error.
func (l *LearnFragment) send(m *message.Message, what string) bool {
	if err := l.port.Send(m); err != nil {
		if !errors.Is(err, queue.ErrClosed) {
			l.fail(fmt.Errorf("%s %s: %w", l.name, what, err))
		}
		return false
	}
	return true
}

// saveCheckpoint persists the fused learner's DNN parameters (the paper's
// §4.2 fault tolerance) as a one-member fragment set named after the
// learner: one overwritten file, or a rotation set of ckptKeep members.
func (l *LearnFragment) saveCheckpoint() error {
	w := l.alg.Weights()
	states := []checkpoint.FragmentState{{Name: l.name, State: checkpoint.State{Version: w.Version, Weights: w.Data}}}
	if l.ckptKeep > 0 {
		return checkpoint.SaveFragmentsRotating(l.ckptPath, states, l.ckptKeep)
	}
	return checkpoint.SaveFragments(l.ckptPath, states)
}

func (l *LearnFragment) fail(err error) {
	l.mu.Lock()
	if l.lastErr == nil {
		l.lastErr = err
	}
	l.mu.Unlock()
	l.failOne.Do(func() { close(l.failed) })
	l.stopOne.Do(func() { close(l.stopped) })
}

// Err returns the first error the learn loop hit, if any.
func (l *LearnFragment) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// StepsConsumed reports rollout steps this learn loop trained on.
func (l *LearnFragment) StepsConsumed() int64 { return l.stepsConsumed.Load() }

// TrainIters reports completed training sessions.
func (l *LearnFragment) TrainIters() int64 { return l.trainIters.Load() }

// Algorithm exposes the learn loop's algorithm (e.g. for PBT weight export).
func (l *LearnFragment) Algorithm() Algorithm { return l.alg }

// Done returns a channel closed when the learn loop finishes: step limit
// reached, shutdown command, Stop, or error.
func (l *LearnFragment) Done() <-chan struct{} { return l.stopped }

// PlaneStats snapshots the fused learner's weight-plane counters; a
// replica's broadcasts are planned by the broadcast fragment, so its stats
// are zero.
func (l *LearnFragment) PlaneStats() weightplane.Stats {
	if l.plane == nil {
		return weightplane.Stats{}
	}
	return l.plane.Stats()
}

// Stop signals the learn loop's threads to finish.
func (l *LearnFragment) Stop() {
	l.stopOne.Do(func() { close(l.stopped) })
	l.recvBuf.Close()
}

// Join waits for the learn loop's threads after Stop and broker shutdown.
func (l *LearnFragment) Join() { l.wg.Wait() }

// BroadcastFragment aggregates replica weights into the committed model and
// plans its distribution — one weight-plane plan per commit over every
// explorer and every live replica — and saves per-fragment checkpoints.
type BroadcastFragment struct {
	port      *broker.Port
	explorers []string
	learnDsts []string
	plane     *weightplane.Planner

	ckptPath  string
	ckptEvery int64
	ckptKeep  int

	version atomic.Int64
	aggs    atomic.Int64

	// Replica state is touched only by the recv loop: each contributing
	// replica's latest push, sorted by name so the mean always sums in the
	// same order.
	replicas []replicaPush
	agg      []float32
	pushes   []*message.Header // fold's scratch

	// Failover plumbing (§5i). hbTimeout > 0 arms the deadline detector: a
	// replica whose weight pushes and heartbeats both fall silent for the
	// timeout is reported to onSuspect (the session's slot supervisor), which
	// quarantines it out of band. seenMu guards the liveness maps — they are
	// written by both the recv loop and the detector thread. epochs fences
	// out a retired incarnation's late traffic by incarnation number; the
	// verdict carries the suspected incarnation's epoch so a stale verdict
	// cannot condemn a respawned successor.
	hbTimeout   time.Duration
	onSuspect   func(name string, epoch int32)
	seenMu      sync.Mutex
	lastSeen    map[string]time.Time
	suspected   map[string]bool
	quarantined map[string]bool
	epochs      map[string]int32
	quarantines atomic.Int64
	stalePushes atomic.Int64
	detStop     chan struct{}
	detOne      sync.Once

	wg      sync.WaitGroup
	mu      sync.Mutex
	lastErr error
}

// replicaPush is one replica's latest contribution to the aggregate.
type replicaPush struct {
	name    string
	version int64
	data    []float32
}

// mean writes the element-wise mean of the replicas' vectors into dst. Each
// element sums from +0 in slice order, so a fixed replica order gives
// bit-identical results; every vector must be at least len(dst) long.
func mean(dst []float32, replicas []replicaPush) {
	n := float32(len(replicas))
	for i := range dst {
		var sum float32
		for _, r := range replicas {
			sum += r.data[i]
		}
		dst[i] = sum / n
	}
}

// BroadcastConfig parameterizes the broadcast fragment.
type BroadcastConfig struct {
	// Explorers lists every explorer client name (broadcast destinations).
	Explorers []string
	// Learners lists the learn replica names (the echo destinations).
	Learners []string
	// InitialVersion/InitialWeights seed the committed model (the replicas'
	// shared initialization, or the restored checkpoint).
	InitialVersion int64
	InitialWeights []float32
	// WeightPlane configures delta/quantized broadcasting (§5g).
	WeightPlane weightplane.Config
	// CheckpointPath, when set, saves the per-fragment checkpoint set every
	// CheckpointEvery aggregations, rotating CheckpointKeep members.
	CheckpointPath  string
	CheckpointEvery int64
	CheckpointKeep  int
}

// NewBroadcastFragment builds the broadcast fragment over a broker port.
func NewBroadcastFragment(port *broker.Port, cfg BroadcastConfig) *BroadcastFragment {
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 100
	}
	b := &BroadcastFragment{
		port:        port,
		explorers:   append([]string(nil), cfg.Explorers...),
		learnDsts:   append([]string(nil), cfg.Learners...),
		plane:       weightplane.New(cfg.WeightPlane),
		ckptPath:    cfg.CheckpointPath,
		ckptEvery:   every,
		ckptKeep:    cfg.CheckpointKeep,
		agg:         append([]float32(nil), cfg.InitialWeights...),
		lastSeen:    make(map[string]time.Time),
		suspected:   make(map[string]bool),
		quarantined: make(map[string]bool),
		epochs:      make(map[string]int32),
		detStop:     make(chan struct{}),
	}
	b.version.Store(cfg.InitialVersion)
	return b
}

// SetFailover arms the replica deadline detector: a live replica silent for
// hbTimeout is handed to onSuspect exactly once. Call before Start.
func (b *BroadcastFragment) SetFailover(hbTimeout time.Duration, onSuspect func(name string, epoch int32)) {
	b.hbTimeout = hbTimeout
	b.onSuspect = onSuspect
}

// seedFailoverState primes a standby broadcaster (machine takeover) before
// Start with the slot-tracked incarnation epochs and the set of replicas
// already degraded out of the run, so the standby fences retired
// incarnations' late pushes exactly as the dead incarnation did. Call after
// SetFailover.
func (b *BroadcastFragment) seedFailoverState(epochs map[string]int32, quarantined []string) {
	b.seenMu.Lock()
	defer b.seenMu.Unlock()
	for n, ep := range epochs {
		b.epochs[n] = ep
	}
	for _, n := range quarantined {
		b.quarantined[n] = true
	}
}

// Start broadcasts the initial committed model to the explorers (seeding
// every behavior policy, as the fused loop does on Session.Start; a
// replica's first echo is its seed) and launches the aggregation loop.
func (b *BroadcastFragment) Start() {
	b.broadcast(b.explorers)
	b.wg.Add(1)
	go b.loop()
	if b.hbTimeout > 0 {
		b.wg.Add(1)
		go b.detectorLoop()
	}
}

// detectorLoop is the broadcast-side deadline detector: it scans the
// liveness map a few times per timeout window and reports every live replica
// whose pushes and heartbeats have both gone silent past the deadline. The
// suspicion callback runs outside seenMu — it sends on channels.
func (b *BroadcastFragment) detectorLoop() {
	defer b.wg.Done()
	period := b.hbTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-b.detStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		type verdict struct {
			name  string
			epoch int32
		}
		var overdue []verdict
		b.seenMu.Lock()
		for _, name := range b.learnDsts {
			if b.quarantined[name] || b.suspected[name] {
				continue
			}
			seen, ok := b.lastSeen[name]
			if !ok {
				// First sighting: the deadline clock starts at detector
				// startup, not at process zero, so a slow-to-warm-up replica
				// gets a full window before suspicion.
				b.lastSeen[name] = now
				continue
			}
			if now.Sub(seen) > b.hbTimeout {
				b.suspected[name] = true
				overdue = append(overdue, verdict{name: name, epoch: b.epochs[name]})
			}
		}
		b.seenMu.Unlock()
		for _, v := range overdue {
			if b.onSuspect != nil {
				b.onSuspect(v.name, v.epoch)
			}
		}
	}
}

// admitPush fences replica traffic during failover: a quarantined replica's
// late pushes and a retired incarnation's (stale epoch) pushes are counted
// and dropped; admitted traffic refreshes the liveness clock.
func (b *BroadcastFragment) admitPush(src string, epoch int32) bool {
	if b.hbTimeout <= 0 {
		return true
	}
	b.seenMu.Lock()
	defer b.seenMu.Unlock()
	if b.quarantined[src] || epoch != b.epochs[src] {
		b.stalePushes.Add(1)
		return false
	}
	b.lastSeen[src] = time.Now()
	return true
}

func (b *BroadcastFragment) loop() {
	defer b.wg.Done()
	var next *message.Header // a non-push a fold popped, handled next
	for {
		h := next
		next = nil
		if h == nil {
			var err error
			if h, err = b.port.NextHeader(true); err != nil {
				return // broker stopped
			}
		}
		if h.Type == message.TypeWeights {
			var ok bool
			if next, ok = b.fold(h); !ok {
				if next != nil {
					_, _ = b.port.Open(next) // releases it
				}
				return
			}
			continue
		}
		m, err := b.port.Open(h)
		if err != nil {
			continue // an unreadable body: the broker counted it
		}
		body, ok := m.Body.(*message.ControlPayload)
		if !ok {
			continue
		}
		switch body.Kind {
		case message.ControlShutdown:
			return
		case message.ControlAckSnapshot:
			b.port.MergeAcked(body.Acked)
		case message.ControlWeightsResync:
			b.plane.MarkStale(m.Header.Src)
		case message.ControlHeartbeat:
			b.admitPush(m.Header.Src, m.Header.Round)
		case message.ControlQuarantine:
			if !b.retireReplica(body.Peer) {
				return
			}
		case message.ControlRejoin:
			if !b.rejoinReplica(body.Peer, m.Header.Round) {
				return
			}
		case message.ControlTakeover:
			// An explorer was re-placed after a machine death: its fresh
			// agent gets the committed model, dense.
			b.plane.MarkStale(body.Peer)
			if !b.broadcast([]string{body.Peer}) {
				return
			}
		}
	}
}

// fold takes the replica push first and every push queued directly behind
// it, and commits them once. Each push passes admitPush in arrival order,
// as it would alone; only each replica's newest readable admitted push is
// opened, and its older ones are discarded unread. The mean reads only each
// replica's latest push, so the committed model is the one handling the
// pushes one at a time would reach, minus the intermediate commits nobody
// used. It returns the first non-push it popped (nil if none) for the loop
// to handle next, and false when the loop must end.
func (b *BroadcastFragment) fold(first *message.Header) (*message.Header, bool) {
	pushes := append(b.pushes[:0], first)
	var next *message.Header
	for {
		h, err := b.port.NextHeader(false)
		if err != nil {
			break // empty, or closed: the next blocking pop reports it
		}
		if h.Type != message.TypeWeights {
			next = h
			break
		}
		pushes = append(pushes, h)
	}
	var folded int64
	opened := false
	for i, h := range pushes {
		if b.admitPush(h.Src, h.Round) {
			folded++
			continue
		}
		b.port.Discard(h) // fenced out: counted in stalePushes
		pushes[i] = nil
	}
	// Newest first: a replica's newest readable push is its contribution
	// and its older pushes are released unread. An unreadable push is not
	// folded, and the replica's next older push stands in for it.
	for i := len(pushes) - 1; i >= 0; i-- {
		h := pushes[i]
		if h == nil {
			continue
		}
		var w *message.WeightsPayload
		if m, err := b.port.Open(h); err == nil {
			w, _ = m.Body.(*message.WeightsPayload)
		}
		if w == nil {
			folded--
			continue
		}
		for j, older := range pushes[:i] {
			if older != nil && older.Src == h.Src {
				b.port.Discard(older) // superseded by this push
				pushes[j] = nil
			}
		}
		j, found := b.findReplica(h.Src)
		if !found {
			b.replicas = slices.Insert(b.replicas, j, replicaPush{name: h.Src})
		}
		b.replicas[j].version = w.Version
		b.replicas[j].data = w.Data
		opened = true
	}
	clear(pushes)
	b.pushes = pushes[:0]
	if !opened {
		return next, true
	}
	return next, b.commit(folded)
}

// commit folds k replica pushes, already recorded in b.replicas, into the
// committed model: the aggregate is the element-wise mean of every
// replica's latest weights, summed in replica-name order (lazy aggregation
// — replicas contribute at their own pace), and a lone replica's push is
// copied, not summed. The version and the aggregation count advance by k,
// the new model is planned once to every explorer and live replica, and the
// checkpoint fires when the count crosses a multiple of its cadence. It
// returns false when the channel is torn down.
func (b *BroadcastFragment) commit(k int64) bool {
	if len(b.replicas) == 1 {
		b.agg = append(b.agg[:0], b.replicas[0].data...)
	} else {
		for _, r := range b.replicas {
			if len(r.data) != len(b.agg) {
				b.fail(fmt.Errorf("broadcast fragment: replica %s pushed %d params, aggregate holds %d",
					r.name, len(r.data), len(b.agg)))
				return false
			}
		}
		mean(b.agg, b.replicas)
	}
	b.version.Add(k)
	n := b.aggs.Add(k)
	// The replicas' share of the plan, even a lone replica's, is the echo:
	// it answers each one's unanswered push, opening its push window, and
	// ties its version counter to the committed version explorers see (PPO
	// matches batch versions against its own counter, and a retried push
	// bumps the committed version without a train). It is staged before any
	// explorer's next batch can arrive, so the replica re-syncs first.
	if !b.broadcast(b.everyone()) {
		return false
	}
	if b.ckptPath != "" && n/b.ckptEvery != (n-k)/b.ckptEvery {
		if err := b.saveCheckpoint(); err != nil {
			b.fail(fmt.Errorf("broadcast fragment checkpoint: %w", err))
			return false
		}
	}
	return true
}

// findReplica returns the index of name's latest push, or the index that
// keeps b.replicas sorted if name has not pushed.
func (b *BroadcastFragment) findReplica(name string) (int, bool) {
	return slices.BinarySearchFunc(b.replicas, name, func(r replicaPush, name string) int {
		return strings.Compare(r.name, name)
	})
}

// broadcast plans and sends the committed model to dsts through the weight
// plane: each message one step of its canonical reconstruction chain.
func (b *BroadcastFragment) broadcast(dsts []string) bool {
	v := b.version.Load()
	for _, o := range b.plane.Plan(b.agg, v, dsts, b.port.AckedWeights()) {
		m := message.New(o.Type, BroadcastName, o.Dsts, o.Body)
		m.Header.WeightsVersion = v
		m.Header.BaseVersion = o.BaseVersion
		if !b.send(m) {
			return false
		}
	}
	return true
}

// retireReplica drops a quarantined replica's contribution from the
// committed model: its last push leaves the element-wise mean, the survivor
// mean is recommitted at a fresh version, and the correction is planned to
// explorers and surviving replicas. It returns false when the channel is
// torn down.
func (b *BroadcastFragment) retireReplica(peer string) bool {
	b.seenMu.Lock()
	dup := b.quarantined[peer]
	b.quarantined[peer] = true
	delete(b.suspected, peer)
	b.seenMu.Unlock()
	if dup {
		return true
	}
	b.quarantines.Add(1)
	i, contributed := b.findReplica(peer)
	if !contributed {
		return true // never pushed: the aggregate already excludes it
	}
	b.replicas = slices.Delete(b.replicas, i, i+1)
	if len(b.replicas) > 0 {
		mean(b.agg, b.replicas)
	}
	// With zero survivors the last committed aggregate stands — it is the
	// checkpointable state a respawned replica restores from.
	b.version.Add(1)
	b.plane.NoteCorrection()
	return b.broadcast(b.everyone())
}

// rejoinReplica readmits a respawned replica at its new incarnation epoch
// and plans it a dense resync echo, so the newcomer installs the current
// committed model before its first push. It returns false when the channel
// is torn down.
func (b *BroadcastFragment) rejoinReplica(peer string, epoch int32) bool {
	b.seenMu.Lock()
	delete(b.quarantined, peer)
	delete(b.suspected, peer)
	b.epochs[peer] = epoch
	b.lastSeen[peer] = time.Now()
	b.seenMu.Unlock()
	b.plane.MarkStale(peer)
	return b.broadcast([]string{peer})
}

// everyone returns every weights destination of a commit: the explorers,
// then the replicas, less the quarantined ones under failover.
func (b *BroadcastFragment) everyone() []string {
	dsts := slices.Clone(b.explorers)
	b.seenMu.Lock()
	defer b.seenMu.Unlock()
	for _, name := range b.learnDsts {
		if b.hbTimeout <= 0 || !b.quarantined[name] {
			dsts = append(dsts, name)
		}
	}
	return dsts
}

// saveCheckpoint persists the per-fragment checkpoint set: the committed
// aggregate plus each replica's last pushed weights.
func (b *BroadcastFragment) saveCheckpoint() error {
	states := []checkpoint.FragmentState{{
		Name:  BroadcastName,
		State: checkpoint.State{Version: b.version.Load(), Weights: append([]float32(nil), b.agg...)},
	}}
	for _, name := range b.learnDsts {
		if i, ok := b.findReplica(name); ok {
			r := b.replicas[i]
			states = append(states, checkpoint.FragmentState{
				Name:  name,
				State: checkpoint.State{Version: r.version, Weights: append([]float32(nil), r.data...)},
			})
		}
	}
	if b.ckptKeep > 0 {
		return checkpoint.SaveFragmentsRotating(b.ckptPath, states, b.ckptKeep)
	}
	return checkpoint.SaveFragments(b.ckptPath, states)
}

func (b *BroadcastFragment) send(m *message.Message) bool {
	if err := b.port.Send(m); err != nil {
		if !errors.Is(err, queue.ErrClosed) {
			b.fail(fmt.Errorf("broadcast fragment send: %w", err))
		}
		return false
	}
	return true
}

func (b *BroadcastFragment) fail(err error) {
	b.mu.Lock()
	if b.lastErr == nil {
		b.lastErr = err
	}
	b.mu.Unlock()
}

// Err returns the first error the broadcast fragment hit, if any.
func (b *BroadcastFragment) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// Version reports the committed weights version.
func (b *BroadcastFragment) Version() int64 { return b.version.Load() }

// Aggregations reports completed aggregation rounds.
func (b *BroadcastFragment) Aggregations() int64 { return b.aggs.Load() }

// PlaneStats snapshots the weight plane's planning counters.
func (b *BroadcastFragment) PlaneStats() weightplane.Stats { return b.plane.Stats() }

// Quarantines reports replicas retired from the aggregate.
func (b *BroadcastFragment) Quarantines() int64 { return b.quarantines.Load() }

// StalePushes reports pushes and heartbeats fenced out by quarantine or a
// retired incarnation epoch.
func (b *BroadcastFragment) StalePushes() int64 { return b.stalePushes.Load() }

// Stop signals the detector thread; the recv loop exits with the broker.
func (b *BroadcastFragment) Stop() {
	b.detOne.Do(func() { close(b.detStop) })
}

// Join waits for the aggregation loop after the broker has been stopped.
func (b *BroadcastFragment) Join() { b.wg.Wait() }

// FragmentReport summarizes a fragment-topology run inside core.Report.
type FragmentReport struct {
	// Topology echoes the normalized topology the run used.
	Learners     int
	MaxStaleness int
	// StaleDrops counts rollouts shed by the staleness bound (or for want
	// of a live replica) and Dispatched the rollouts explorers
	// sent to a learn replica, replays included.
	StaleDrops int64
	Dispatched int64
	// Aggregations counts broadcast-fragment aggregation rounds and
	// CommittedVersion the final committed weights version.
	Aggregations     int64
	CommittedVersion int64
	// LearnSteps/LearnIters break consumption down per replica, priors from
	// retired incarnations included.
	LearnSteps []int64
	LearnIters []int64
	// Failover counters (§5i): Quarantines is replicas retired from the
	// aggregate, Redispatches the un-acked rollouts explorers replayed to
	// survivors,
	// Respawns the restarted incarnations, Degraded the slots that exhausted
	// their restart budget and run permanently N-1, and StalePushes the
	// fenced-out traffic from retired incarnations.
	Quarantines  int64
	Redispatches int64
	Respawns     int64
	Degraded     int64
	StalePushes  int64
	// Machine-failover counters (§5j): LeaseRenewals is the membership
	// plane's received lease count, MachineVerdicts the epoch-fenced
	// machine-death verdicts, Takeovers the fragments re-placed onto
	// survivors, and TakeoverByFragment the per-fragment breakdown counted
	// from ControlTakeover records on the control plane (exactly one per
	// dead fragment when epoch fencing holds).
	LeaseRenewals      int64
	MachineVerdicts    int64
	Takeovers          int64
	TakeoverByFragment map[string]int64
	// Plane is the weight plane's final planning counters.
	Plane weightplane.Stats
}

// fragRuntime is the Session-side scheduler state for a fragment topology.
// Every fragment sits in a slot; the broadcaster slot is written only by
// the machine-failover engine, which may swap a standby in while the
// monitor, reporters and supervisors keep reading.
type fragRuntime struct {
	topo   Topology
	slots  []*slot[*LearnFragment]
	caster *slot[*BroadcastFragment]
	// counts tallies every explorer's and replica's dispatch outcomes.
	counts dispatchCounts

	// failover arms replica supervision (LearnerFailover or MachineFailover,
	// which Config.Validate allows only with >= 2 replicas).
	failover  bool
	takeovers atomic.Int64
	// zombieWG tracks reaper threads joining retired incarnations whose
	// trainer may be wedged; join() waits for it after the transport stops.
	zombieWG sync.WaitGroup

	maxSteps int64
	done     chan struct{}
	doneOne  sync.Once
	// fatal is the machine-failover engine's terminal verdict; the first
	// one stands.
	fatal   atomic.Pointer[error]
	monWG   sync.WaitGroup
	stopMon chan struct{}
}

// learnKind respawns a learn replica over the port its slot keeps — in-flight
// echoes to its name must drain as consumed messages, not privileged drops.
// The quarantine reroutes the dataflow first: every explorer shrinks its
// rotation and replays the replica's un-acked rollouts, and the
// broadcaster recommits the survivor mean. The successor is a fresh
// algorithm restored from the replica's state in the latest fragment
// checkpoint set (else the committed aggregate's, else fresh; the rejoin
// echo resyncs it either way), and rejoins at its epoch. Losing the last
// live replica fails the run.
func (s *Session) learnKind() *slotKind[*LearnFragment] {
	f := s.frags
	dsts := append(explorerNames(s.cfg.NumExplorers), BroadcastName)
	tell := func(kind message.ControlKind) func(string, int32) {
		return func(name string, epoch int32) {
			m := message.New(message.TypeControl, ControllerName, dsts,
				&message.ControlPayload{Kind: kind, Peer: name})
			m.Header.Round = epoch
			_ = s.ctrlPort.Send(m)
		}
	}
	return &slotKind[*LearnFragment]{
		budget: s.cfg.MaxLearnerRestarts,
		build: func(id int, old *LearnFragment, port *broker.Port, epoch int32) (*LearnFragment, error) {
			alg, err := s.algF(s.seed)
			if err != nil {
				return nil, fmt.Errorf("build algorithm: %w", err)
			}
			// An unreadable checkpoint is a fresh start, not a terminal error.
			if st, ok := s.checkpointState(LearnName(id), BroadcastName); ok {
				if err := alg.RestoreWeights(st.Version, st.Weights); err != nil {
					return nil, fmt.Errorf("restore checkpoint: %w", err)
				}
			}
			next := s.newReplica(id, alg, port)
			next.observeStaleness = old.observeStaleness
			next.SetFailover(epoch, s.cfg.HeartbeatEvery)
			return next, nil
		},
		// Stop closes the receive buffer, and the nudge makes a receiver
		// blocked in Recv observe it. Waiting on RecvDone before building
		// the successor keeps the nudge from its receiver. The trainer may be
		// wedged inside a step (the very hang that tripped the detector), so
		// it is reaped in the background.
		retire: func(name string, old *LearnFragment) bool {
			old.Stop()
			nudge(old.port, name)
			select {
			case <-s.shutdown:
				return false
			case <-old.RecvDone():
			}
			f.zombieWG.Add(1)
			go func() {
				defer f.zombieWG.Done()
				old.Join()
			}()
			return true
		},
		fold: func(old *LearnFragment, prior *tally) {
			prior.steps += old.StepsConsumed()
			prior.iters += old.TrainIters()
		},
		leave: tell(message.ControlQuarantine),
		join:  tell(message.ControlRejoin),
		fatal: func() bool { return f.liveReplicas() == 0 },
	}
}

// suspect is the broadcaster's deadline-detector callback: it hands the
// verdict to the replica's slot.
func (f *fragRuntime) suspect(name string, epoch int32) {
	for _, sl := range f.slots {
		if sl.name == name {
			sl.post(epoch)
		}
	}
}

// learns snapshots the live incarnation of every slot.
func (f *fragRuntime) learns() []*LearnFragment {
	out := make([]*LearnFragment, len(f.slots))
	for i, sl := range f.slots {
		out[i] = sl.current()
	}
	return out
}

// replicaStates snapshots every learn slot's incarnation epoch and whether
// it is live or degraded out of the run.
func (f *fragRuntime) replicaStates() (epochs map[string]int32, live, degraded []string) {
	epochs = make(map[string]int32, len(f.slots))
	for _, sl := range f.slots {
		sl.mu.Lock()
		epochs[sl.name] = sl.epoch
		if sl.degraded {
			degraded = append(degraded, sl.name)
		} else {
			live = append(live, sl.name)
		}
		sl.mu.Unlock()
	}
	return epochs, live, degraded
}

// liveReplicas counts slots that have not degraded out of the run.
func (f *fragRuntime) liveReplicas() int {
	_, live, _ := f.replicaStates()
	return len(live)
}

// start launches every fragment plus the completion monitor (the fragment
// scheduler's only centralized piece: fragments do not know the global step
// budget, so the session sums replica consumption and ends the run).
func (f *fragRuntime) start() {
	f.caster.current().Start()
	for _, l := range f.learns() {
		l.Start()
	}
	f.monWG.Add(1)
	go f.monitor()
}

func (f *fragRuntime) monitor() {
	defer f.monWG.Done()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-f.stopMon:
			return
		case <-ticker.C:
			if f.maxSteps > 0 && f.stepsConsumed() >= f.maxSteps {
				f.doneOne.Do(func() { close(f.done) })
				return
			}
			// Under failover a replica error is its supervisor's to judge:
			// only a terminal verdict ends the run.
			if f.err() != nil {
				f.doneOne.Do(func() { close(f.done) })
				return
			}
		}
	}
}

func (f *fragRuntime) stepsConsumed() int64 {
	var sum int64
	for _, sl := range f.slots {
		sl.mu.Lock()
		sum += sl.prior.steps + sl.cur.StepsConsumed()
		sl.mu.Unlock()
	}
	return sum
}

func (f *fragRuntime) trainIters() int64 {
	var sum int64
	for _, sl := range f.slots {
		sl.mu.Lock()
		sum += sl.prior.iters + sl.cur.TrainIters()
		sl.mu.Unlock()
	}
	return sum
}

// err returns the first fragment error, if any. Under failover a replica
// error surfaces only when its slot supervisor judged it terminal.
func (f *fragRuntime) err() error {
	if e := f.fatal.Load(); e != nil {
		return *e
	}
	for _, sl := range f.slots {
		e := sl.err()
		if !f.failover {
			e = sl.current().Err()
		}
		if e != nil {
			return e
		}
	}
	return f.caster.current().Err()
}

// stop signals every fragment to finish; the broker teardown that follows
// unblocks their receive loops.
func (f *fragRuntime) stop() {
	close(f.stopMon)
	f.doneOne.Do(func() { close(f.done) })
	f.caster.current().Stop()
	for _, l := range f.learns() {
		l.Stop()
	}
}

// join waits for every fragment thread after broker shutdown, including
// reapers still draining retired incarnations.
func (f *fragRuntime) join() {
	f.monWG.Wait()
	for _, l := range f.learns() {
		l.Join()
	}
	f.caster.current().Join()
	f.zombieWG.Wait()
}

// report assembles the fragment-side measurements.
func (f *fragRuntime) report() *FragmentReport {
	caster := f.caster.current()
	fr := &FragmentReport{
		Learners:         f.topo.Learners,
		MaxStaleness:     f.topo.MaxStaleness,
		StaleDrops:       f.counts.staleDrops.Load(),
		Dispatched:       f.counts.dispatched.Load(),
		Aggregations:     caster.Aggregations(),
		CommittedVersion: caster.Version(),
		Quarantines:      caster.Quarantines(),
		Redispatches:     f.counts.redispatches.Load(),
		Takeovers:        f.takeovers.Load(),
		StalePushes:      caster.StalePushes(),
		Plane:            caster.PlaneStats(),
	}
	for _, sl := range f.slots {
		sl.mu.Lock()
		fr.LearnSteps = append(fr.LearnSteps, sl.prior.steps+sl.cur.StepsConsumed())
		fr.LearnIters = append(fr.LearnIters, sl.prior.iters+sl.cur.TrainIters())
		// Every re-placement, failure or move, starts the next epoch.
		fr.Respawns += int64(sl.epoch)
		if sl.degraded {
			fr.Degraded++
		}
		sl.mu.Unlock()
	}
	return fr
}

// mergedSeries sums per-replica throughput series element-wise.
func (f *fragRuntime) mergedSeries() []float64 {
	var out []float64
	for _, l := range f.learns() {
		s := l.Series.PerSecond()
		if len(s) > len(out) {
			grown := make([]float64, len(s))
			copy(grown, out)
			out = grown
		}
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}

// meanOver computes the observation-weighted mean of per-replica histogram
// means.
func meanOver(hists []*stats.Histogram) time.Duration {
	var total int64
	var weighted float64
	for _, h := range hists {
		n := int64(h.Count())
		total += n
		weighted += float64(h.Mean()) * float64(n)
	}
	if total == 0 {
		return 0
	}
	return time.Duration(weighted / float64(total))
}

// busiest returns the histogram with the most observations (the CDF the
// report carries; replicas see statistically identical traffic).
func busiest(hists []*stats.Histogram) *stats.Histogram {
	best := hists[0]
	for _, h := range hists[1:] {
		if h.Count() > best.Count() {
			best = h
		}
	}
	return best
}
