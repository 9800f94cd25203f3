package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/fabric"
	"xingtian/internal/message"
	"xingtian/internal/queue"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// The uplink workloads send rollouts explorer → learner across two machines,
// the direction and message type that carries almost all of a training run's
// bytes. One sending and one consuming goroutine, as an explorer's sender
// thread and the learner's receiver thread are.

const (
	uplinkSrc = "explorer-0"
	uplinkDst = "learner"
)

var uplinkFrames = &workloadDef{
	name:    "uplink-frames",
	why:     "2.3 MB frame rollouts over 2 machines: bytes dominate (serialize, lz4, allocation); per-message costs are noise",
	op:      "rollout message delivered and verified",
	latency: "stamp before Port.Send → Port.Recv returned the decoded body",
	window:  2,
	generate: func(seed int64) (any, error) {
		// 24 rollouts, 54 MB: how busy the arcade screen is decides how far a
		// rollout compresses (18–35 KB), and a pool of 8 left the mean wire
		// size 5–7 % apart between seeds.
		return genRolloutPool(frameRollouts, seed, 24)
	},
	setup:  setupUplink,
	staged: stagedUplink,
	budget: uplinkBudget,
}

var uplinkVectors = &workloadDef{
	name:    "uplink-vectors",
	why:     "2 KB vector rollouts, same path, LZ4 bypassed: per-message costs dominate (routing, queue hand-offs, frame header, syscalls)",
	op:      "rollout message delivered and verified",
	latency: "stamp before Port.Send → Port.Recv returned the decoded body",
	window:  16,
	generate: func(seed int64) (any, error) {
		return genRolloutPool(vectorRollouts, seed, 64)
	},
	setup:  setupUplink,
	staged: stagedUplink,
	budget: uplinkBudget,
}

// inflight bounds a closed loop's outstanding operations: a counting
// semaphore the size of the window.
type inflight struct {
	slots chan struct{}
}

func newInflight(window int) *inflight {
	return &inflight{slots: make(chan struct{}, window)}
}

// acquire blocks until the window has room or stop closes.
func (f *inflight) acquire(stop <-chan struct{}) bool {
	select {
	case f.slots <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

func (f *inflight) release() { <-f.slots }

// drain waits until no operation is outstanding or the timeout passes.
func (f *inflight) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for len(f.slots) > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

type pendingSend struct {
	sent time.Time
	pool int
}

type uplink struct {
	pool     *rolloutPool
	grid     *fabric.Grid
	src, dst *broker.Port
	fl       *inflight
	*firstOp
	stopCh chan struct{}
	wg     sync.WaitGroup

	attempted atomic.Int64
	verified  atomic.Int64

	violations

	mu      sync.Mutex
	pending map[uint64]pendingSend

	samples sampleLog // owned by the receiving goroutine until stop
	tr      *tracer
}

func setupUplink(inputs any, window int) (instance, error) {
	g, err := newGrid(2, true)
	if err != nil {
		return nil, err
	}
	dst, err := g.Register(0, uplinkDst)
	if err != nil {
		g.Stop()
		return nil, err
	}
	src, err := g.Register(1, uplinkSrc)
	if err != nil {
		g.Stop()
		return nil, err
	}
	return &uplink{
		pool:    inputs.(*rolloutPool),
		grid:    g,
		src:     src,
		dst:     dst,
		fl:      newInflight(window),
		firstOp: newFirstOp(),
		stopCh:  make(chan struct{}),
		pending: make(map[uint64]pendingSend),
	}, nil
}

func (u *uplink) start(tr *tracer) {
	u.tr = tr
	u.wg.Add(2)
	go u.sendLoop(tr.buffer())
	go u.recvLoop(tr.buffer())
}

func (u *uplink) sendLoop(spans *spanBuf) {
	defer u.wg.Done()
	dst := []string{uplinkDst}
	for seq := 0; ; seq++ {
		if !u.fl.acquire(u.stopCh) {
			return
		}
		idx := seq % len(u.pool.batches)
		body := u.pool.batches[idx]
		m := message.New(message.TypeRollout, uplinkSrc, dst, body)
		m.Header.WeightsVersion = body.WeightsVersion
		id := m.Header.ID
		sent := time.Now()
		u.mu.Lock()
		u.pending[id] = pendingSend{sent: sent, pool: idx}
		u.mu.Unlock()
		u.attempted.Add(1)
		err := u.src.Send(m)
		spans.add("broker.send", "delivery", id, sent, time.Now())
		if err != nil {
			u.violations.add("send %d: %v", id, err)
			u.mu.Lock()
			delete(u.pending, id)
			u.mu.Unlock()
			u.fl.release()
		}
	}
}

func (u *uplink) recvLoop(spans *spanBuf) {
	defer u.wg.Done()
	var scratch []byte
	for {
		m, err := u.dst.Recv()
		now := time.Now()
		if errors.Is(err, queue.ErrClosed) {
			return
		}
		if err != nil {
			// A body that failed to decode: its slot never completes, so
			// the drain at stop reports it as a failed operation.
			u.violations.add("recv: %v", err)
			continue
		}
		id := m.Header.ID
		u.mu.Lock()
		p, ok := u.pending[id]
		delete(u.pending, id)
		u.mu.Unlock()
		if !ok {
			u.violations.add("delivered message %d was never sent (or delivered twice)", id)
			continue
		}
		u.samples.add(now, now.Sub(p.sent).Seconds()*1e3)
		spans.add("delivery", "", id, p.sent, now)

		body, isRollout := m.Body.(*rollout.Batch)
		if !isRollout {
			u.violations.add("message %d decoded to %T, want a rollout", id, m.Body)
		} else if scratch, err = serialize.MarshalAppend(scratch[:0], body); err != nil {
			u.violations.add("message %d re-marshal: %v", id, err)
		} else if got, want := sumOf(scratch), u.pool.sums[p.pool]; got != want {
			u.violations.add("message %d body %+v differs from pool entry %d %+v", id, got, p.pool, want)
		} else {
			u.verified.Add(1)
			u.done()
		}
		u.fl.release()
	}
}

func (u *uplink) progress() (int64, int64) {
	return u.verified.Load(), wireBytesSent(u.grid)
}

func (u *uplink) health() broker.ClusterHealth { return u.grid.Health() }

func (u *uplink) stop(_, _ time.Time) outcome {
	close(u.stopCh)
	if !u.fl.drain(5 * time.Second) {
		u.violations.add("%d message(s) still undelivered 5 s after the last send", len(u.fl.slots))
	}
	pre := u.grid.Health()
	if n, detail := dropsOutsideShedding(pre); n != 0 {
		u.violations.add("%d drop(s) outside backpressure shedding before stop:%s", n, detail)
	}
	u.grid.Stop()
	u.wg.Wait()
	post := u.grid.Health()

	out := outcome{
		attempted:  u.attempted.Load(),
		verified:   u.verified.Load(),
		violations: u.violations.list,
		samples:    []*sampleLog{&u.samples},
		layers:     channelLayers(pre, post),
		spans:      selfTimes(u.tr.all()),
	}
	if st := out.spans["broker.send"]; st != nil {
		out.layers["broker.send_us"] = st.MeanUS
	}
	return out
}

func stagedUplink(inputs any, stageBudget time.Duration) (map[string]float64, error) {
	pool := inputs.(*rolloutPool)
	bodies := make([]any, len(pool.batches))
	for i, b := range pool.batches {
		bodies[i] = b
	}
	return stagedChannel(bodies, serialize.NewCompressor(), stageBudget)
}

// uplinkBudget places the staged per-message costs along the path one rollout
// takes explorer → learner. The rows are disjoint: the destination broker's
// store insertion and ID-queue hand-off happen inside the fabric hop.
func uplinkBudget(l map[string]float64) []budgetRow {
	return []budgetRow{
		{"serialize", (l["serialize.marshal_us"] + l["serialize.unmarshal_us"]) / 1e3, "marshal + unmarshal"},
		{"lz4", (l["lz4.pack_us"] + l["lz4.unpack_us"]) / 1e3, "Compressor.Pack + Unpack"},
		{"objectstore", (l["objectstore.put_ns"] + 2*l["objectstore.get_release_ns"]) / 1e6, "source put; source and destination get + release"},
		{"queue", 2 * l["queue.handoff_ns"] / 1e6, "sender → router, router → forwarder"},
		{"fabric", l["fabric.hop_us"] / 1e3, "Forward → remote header popped: frame header, CRC, writev, read, inject copy + put, ID-queue hand-off"},
	}
}
