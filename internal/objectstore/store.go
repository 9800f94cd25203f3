// Package objectstore implements the shared-memory object store at the heart
// of XingTian's broker process.
//
// Message bodies are inserted once and referenced by ID from message headers
// travelling through the header and ID queues; receivers fetch bodies by ID
// without copies (Get returns the stored slice). Reference counting lets the
// router pin a body once per destination so that a broadcast (e.g. updated
// DNN parameters to N explorers) is freed exactly after the last receiver
// has copied it out.
//
// # Sharding
//
// The store is sharded: objects are distributed across a power-of-two number
// of shards by the low bits of their ID, each shard guarded by its own
// RWMutex. IDs come from one atomic counter, so consecutive Puts land on
// consecutive shards and a broadcast's Pin/Release traffic for different
// objects never contends on a shared lock. Reference counts are atomics:
// Pin and non-final Release touch only a read lock plus one atomic add, so
// the concurrent fan-out lifecycle of a weights broadcast (N receivers
// releasing the same object while M explorers put rollouts) scales with
// cores instead of serializing behind one global mutex.
//
// # Reference-count ownership contract
//
// The channel observes a strict pin/release discipline; every object's
// reference count must return to zero on every path, including errors:
//
//   - The sender (Port.Send) calls Put with one reference per resolved
//     destination (local names plus remote machines). From that moment each
//     reference is owned by whichever stage currently holds the header for
//     that destination.
//   - The router (Broker.route) transfers one reference per local
//     destination into that client's ID queue, and one per remote machine
//     into the forwarder queue. If a destination is unknown, its queue is
//     closed, or no Remote is configured, the router releases that
//     destination's reference immediately — the drop is counted, never
//     leaked.
//   - The receiver (Port.NextHeader) owns the reference once the header is
//     popped from its ID queue. Port.Open releases it whether or not
//     decompression/decoding succeeds; Port.Discard releases it unread.
//   - The forwarder goroutine owns the remote reference and releases it
//     after Remote.Forward returns, success or failure.
//   - Broker.Stop drains undelivered headers from closed ID queues and
//     releases their references, then asserts the store is drained
//     (VerifyDrained) and records any leak in the broker metrics.
//
// # The Get / final-Release race rule
//
// Get returns the stored slice without copying and without touching the
// reference count. The returned bytes are only valid while the caller holds
// a reference of its own: calling Get on an ID whose references are all
// owned by other goroutines races with the final Release of that object
// (the lookup may fail, or the slice may be read while another goroutine
// frees the object's accounting). Every holder in the channel observes the
// rule implicitly — a stage calls Get only on headers it popped, and the
// popped header carries the stage's own reference. Pin first if you need
// bytes to outlive your current reference.
//
// # Leak detection
//
// The leak detector (Leaked, VerifyDrained) makes violations of the
// contract observable. The hot path never reads the wall clock: each entry
// records a monotonic shard-local creation sequence number, and observers
// (Checkpoint, Leaked) record watermarks — (time, per-shard sequence)
// snapshots. An object's reported Age is the provable lower bound derived
// from the oldest watermark that already covered its sequence number, so an
// object reported older than the channel's in-flight window is a certain
// leak, never a false positive.
//
// # Byte budget and backpressure
//
// A store built with WithBudget is bounded: live bytes are tracked globally
// (one atomic, off the shard locks) against a byte budget with high/low
// watermarks. Crossing the high watermark flips the store into backpressure
// mode (Pressured, Stats.Backpressure); falling back to the low watermark
// clears it. Put always succeeds — privileged traffic (model updates,
// control) must never be refused — but TryPut, the admission path for
// droppable traffic (trajectories), rejects with ErrBudget once the bytes a
// new body would add cross the high watermark. The band between the high
// watermark and the budget is therefore reserved headroom for privileged
// bodies: as long as privileged in-flight bytes stay inside it, the global
// peak (Stats.PeakLiveBytes) never exceeds the budget.
package objectstore

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned when an object ID is absent from the store.
var ErrNotFound = errors.New("objectstore: object not found")

// ErrNotDrained is returned by VerifyDrained when live objects remain.
var ErrNotDrained = errors.New("objectstore: store not drained")

// ErrBudget is returned by TryPut when admitting the body would push live
// bytes past the bounded store's high watermark.
var ErrBudget = errors.New("objectstore: byte budget exhausted")

// ID identifies an object in a store. IDs are unique per store for its
// lifetime (monotonic, never reused); the low bits select the shard.
type ID uint64

// Stats is a snapshot of store occupancy counters. Store.Stats aggregates
// the per-shard counters.
type Stats struct {
	// Objects is the number of live objects.
	Objects int
	// Bytes is the total size of live objects.
	Bytes int64
	// PeakBytes is the high-water mark of Bytes. For the aggregate
	// snapshot this is the sum of per-shard high-water marks, which is an
	// upper bound on (and for serial workloads equal to) the instantaneous
	// global peak.
	PeakBytes int64
	// TotalPut is the cumulative number of Put calls.
	TotalPut int64
	// TotalReleased is the cumulative number of objects fully released.
	TotalReleased int64
	// ReleaseErrors is the cumulative number of Release calls on unknown
	// IDs — each one is a double release or a release of a never-stored
	// object, i.e. a refcount-discipline violation.
	ReleaseErrors int64

	// The remaining fields describe the store-wide byte budget. They are
	// filled only by the aggregate Stats() snapshot (a shard's snapshot
	// leaves them zero — budgets are global, not per shard).

	// Budget is the configured byte budget (0 = unbounded).
	Budget int64
	// PeakLiveBytes is the true instantaneous high-water mark of global
	// live bytes, tracked atomically across shards. Unlike PeakBytes (the
	// sum of per-shard peaks, an upper bound) this is exact, so a bounded
	// store proves PeakLiveBytes <= Budget.
	PeakLiveBytes int64
	// Backpressure reports whether the store is currently above its high
	// watermark (always false for unbounded stores).
	Backpressure bool
	// BackpressureEnters counts transitions into backpressure mode.
	BackpressureEnters int64
	// BudgetRejects counts TryPut calls refused with ErrBudget.
	BudgetRejects int64
}

// add accumulates the per-shard fields of o into s field-wise (the budget
// fields are store-global and not touched here).
func (s *Stats) add(o Stats) {
	s.Objects += o.Objects
	s.Bytes += o.Bytes
	s.PeakBytes += o.PeakBytes
	s.TotalPut += o.TotalPut
	s.TotalReleased += o.TotalReleased
	s.ReleaseErrors += o.ReleaseErrors
}

// entry is one stored object. refs is atomic so Pin and non-final Release
// need no shard write lock; data and seq are immutable after insertion.
type entry struct {
	data []byte
	seq  uint64 // shard-local creation sequence, assigned under shard.mu
	refs atomic.Int64
}

// shard is one lock domain of the store. The plain fields (objects map,
// seq, stats) are guarded by mu; releaseErrors is atomic because the
// unknown-ID path holds no lock. Padding keeps adjacent shards off one
// cache line so refcount traffic on shard i never dirties shard i+1.
type shard struct {
	mu      sync.RWMutex
	objects map[ID]*entry
	seq     uint64
	stats   Stats // ReleaseErrors field unused here; see releaseErrors

	releaseErrors atomic.Int64

	_ [24]byte // pad to a multiple of the cache line size
}

// watermark is one observer snapshot: every entry whose shard sequence is
// <= seqs[shard] provably existed at time t.
type watermark struct {
	t    time.Time
	seqs []uint64
}

// Store is an in-memory object store with reference counting. It models the
// plasma/Arrow shared-memory store of the paper: zero-copy reads, explicit
// pin/release life cycle. The zero value is not usable; use New.
type Store struct {
	nextID atomic.Uint64
	mask   uint64
	shards []shard

	// Byte-budget accounting, global across shards. budget/highMark/lowMark
	// are immutable after New; liveBytes and peakLive are maintained off the
	// shard locks so the budget check never serializes Puts.
	budget   int64
	highMark int64
	lowMark  int64

	liveBytes     atomic.Int64
	peakLive      atomic.Int64
	pressured     atomic.Bool
	bpEnters      atomic.Int64
	budgetRejects atomic.Int64

	markMu sync.Mutex
	marks  []watermark
}

// Option configures a store at construction.
type Option func(*Store)

// Default watermark fractions of the budget: backpressure engages at the
// high watermark and clears at the low one (hysteresis, so a store hovering
// at the boundary doesn't flap).
const (
	DefaultHighWatermark = 0.85
	DefaultLowWatermark  = 0.60
)

// WithBudget bounds the store to roughly budget live bytes: TryPut rejects
// droppable admissions at the high watermark, and Pressured/Stats surface
// backpressure to callers. budget <= 0 keeps the store unbounded.
func WithBudget(budget int64) Option {
	return func(s *Store) {
		if budget <= 0 {
			return
		}
		s.budget = budget
		s.highMark = int64(float64(budget) * DefaultHighWatermark)
		s.lowMark = int64(float64(budget) * DefaultLowWatermark)
	}
}

// DefaultShards is the shard count used by New: the smallest power of two
// covering the machine's CPUs, clamped to [8, 128] so that small hosts
// still spread broadcast traffic and huge hosts don't pay for hundreds of
// near-empty maps.
func DefaultShards() int {
	n := ceilPow2(runtime.NumCPU())
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	return n
}

// ceilPow2 returns the smallest power of two >= n (n <= 0 yields 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns an empty store with DefaultShards shards. WithBudget bounds
// the store; without it the store is unbounded.
func New(opts ...Option) *Store {
	return NewSharded(DefaultShards(), opts...)
}

// NewSharded returns an empty store with the given shard count, rounded up
// to a power of two. nshards <= 1 yields a single-shard store (useful for
// contention baselines in benchmarks).
func NewSharded(nshards int, opts ...Option) *Store {
	n := ceilPow2(nshards)
	s := &Store{
		mask:   uint64(n - 1),
		shards: make([]shard, n),
	}
	for i := range s.shards {
		s.shards[i].objects = make(map[ID]*entry)
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Budget reports the configured byte budget (0 = unbounded).
func (s *Store) Budget() int64 { return s.budget }

// Pressured reports whether the store is in backpressure mode: live bytes
// crossed the high watermark and have not yet fallen back to the low one.
// Always false for unbounded stores.
func (s *Store) Pressured() bool { return s.pressured.Load() }

// shardFor selects the shard owning id.
func (s *Store) shardFor(id ID) *shard {
	return &s.shards[uint64(id)&s.mask]
}

// Put inserts data with an initial reference count of refs (refs < 1 is
// treated as 1) and returns its ID. The store takes ownership of data; the
// caller must not mutate it afterwards — this is the zero-copy contract.
//
// Put never fails, even on a bounded store past its budget: it is the
// privileged admission path (model updates, control traffic). Droppable
// traffic must go through TryPut so the high-watermark band stays reserved
// for privileged bodies.
func (s *Store) Put(data []byte, refs int) ID {
	s.noteLiveAdd(s.liveBytes.Add(int64(len(data))))
	return s.insert(data, refs)
}

// TryPut inserts data like Put but respects the byte budget: on a bounded
// store it rejects with ErrBudget when admitting the body would push live
// bytes past the high watermark (also flipping the store into backpressure
// mode so callers can start shedding). On an unbounded store it never fails.
// This is the admission path for droppable traffic (trajectories).
func (s *Store) TryPut(data []byte, refs int) (ID, error) {
	n := int64(len(data))
	if s.budget <= 0 {
		s.noteLiveAdd(s.liveBytes.Add(n))
		return s.insert(data, refs), nil
	}
	// Reserve the bytes with a CAS loop so concurrent TryPuts cannot
	// collectively overshoot the high watermark.
	for {
		cur := s.liveBytes.Load()
		if cur+n > s.highMark {
			s.budgetRejects.Add(1)
			s.enterPressure()
			return 0, fmt.Errorf("tryput %dB at %dB live: %w", n, cur, ErrBudget)
		}
		if s.liveBytes.CompareAndSwap(cur, cur+n) {
			s.noteLiveAdd(cur + n)
			return s.insert(data, refs), nil
		}
	}
}

// insert performs the shard insertion shared by Put and TryPut. Live-byte
// accounting has already happened.
func (s *Store) insert(data []byte, refs int) ID {
	if refs < 1 {
		refs = 1
	}
	id := ID(s.nextID.Add(1))
	e := &entry{data: data}
	e.refs.Store(int64(refs))
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.seq++
	e.seq = sh.seq
	sh.objects[id] = e
	sh.stats.Objects++
	sh.stats.Bytes += int64(len(data))
	sh.stats.TotalPut++
	if sh.stats.Bytes > sh.stats.PeakBytes {
		sh.stats.PeakBytes = sh.stats.Bytes
	}
	sh.mu.Unlock()
	return id
}

// noteLiveAdd maintains the global live-byte peak and the backpressure flag
// after live bytes rose to nb.
func (s *Store) noteLiveAdd(nb int64) {
	for {
		p := s.peakLive.Load()
		if nb <= p || s.peakLive.CompareAndSwap(p, nb) {
			break
		}
	}
	if s.budget > 0 && nb >= s.highMark {
		s.enterPressure()
	}
}

// enterPressure flips the store into backpressure mode, counting the
// transition exactly once per episode.
func (s *Store) enterPressure() {
	if s.pressured.CompareAndSwap(false, true) {
		s.bpEnters.Add(1)
	}
}

// Get returns the object's bytes without copying. The returned slice is
// shared: callers must treat it as read-only, must hold a reference of
// their own while using it, and must not use it after that reference's
// Release — see the Get / final-Release race rule in the package comment.
func (s *Store) Get(id ID) ([]byte, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.objects[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("get %d: %w", id, ErrNotFound)
	}
	return e.data, nil
}

// Pin increments the object's reference count, e.g. when the router adds an
// additional destination after insertion. The caller must already hold a
// reference (pinning a fully released object is a contract violation).
func (s *Store) Pin(id ID) error {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.objects[id]
	sh.mu.RUnlock()
	if !ok {
		return fmt.Errorf("pin %d: %w", id, ErrNotFound)
	}
	e.refs.Add(1)
	return nil
}

// Release decrements the object's reference count and frees it when the
// count reaches zero. Releasing an unknown ID returns ErrNotFound and is
// counted in Stats.ReleaseErrors. Only the decrement that lands exactly on
// zero frees the object, so concurrent receivers of a broadcast can release
// without coordination.
func (s *Store) Release(id ID) error {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.objects[id]
	sh.mu.RUnlock()
	if !ok {
		sh.releaseErrors.Add(1)
		return fmt.Errorf("release %d: %w", id, ErrNotFound)
	}
	n := e.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		// A racing over-release of the object the zero-decrementer is
		// currently freeing: a discipline violation, counted like a
		// release of an unknown ID.
		sh.releaseErrors.Add(1)
		return fmt.Errorf("release %d: %w", id, ErrNotFound)
	}
	sh.mu.Lock()
	delete(sh.objects, id)
	sh.stats.Objects--
	sh.stats.Bytes -= int64(len(e.data))
	sh.stats.TotalReleased++
	sh.mu.Unlock()
	nb := s.liveBytes.Add(-int64(len(e.data)))
	if s.budget > 0 && nb <= s.lowMark {
		s.pressured.CompareAndSwap(true, false)
	}
	return nil
}

// Refs reports the current reference count of id, or 0 when absent.
func (s *Store) Refs(id ID) int {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.objects[id]
	sh.mu.RUnlock()
	if !ok {
		return 0
	}
	return int(e.refs.Load())
}

// Stats returns a snapshot of occupancy counters aggregated across shards,
// plus the store-global budget fields.
func (s *Store) Stats() Stats {
	var out Stats
	for i := range s.shards {
		out.add(s.shards[i].snapshot())
	}
	out.Budget = s.budget
	out.PeakLiveBytes = s.peakLive.Load()
	out.Backpressure = s.pressured.Load()
	out.BackpressureEnters = s.bpEnters.Load()
	out.BudgetRejects = s.budgetRejects.Load()
	return out
}

// snapshot reads one shard's counters consistently.
func (sh *shard) snapshot() Stats {
	sh.mu.RLock()
	st := sh.stats
	sh.mu.RUnlock()
	st.ReleaseErrors = sh.releaseErrors.Load()
	return st
}

// Len reports the number of live objects.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	return n
}

// LeakRecord describes one live object in a leak report.
type LeakRecord struct {
	// ID is the object's store ID.
	ID ID
	// Refs is the object's current reference count.
	Refs int
	// Size is the object's byte length.
	Size int
	// Age is the provable lower bound on how long the object has been
	// live: the time since the oldest watermark that already covered its
	// creation sequence. Zero when no watermark predates the object (call
	// Checkpoint periodically to establish baselines).
	Age time.Duration
}

// Checkpoint records a watermark: a (time, per-shard sequence) snapshot
// against which later Leaked calls prove object ages. Brokers call it from
// their periodic health snapshot; it costs one read lock per shard and
// never touches the Put/Get/Pin/Release hot path.
func (s *Store) Checkpoint() {
	s.recordMark(time.Now(), s.snapshotSeqs())
}

// snapshotSeqs reads every shard's creation sequence.
func (s *Store) snapshotSeqs() []uint64 {
	seqs := make([]uint64, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		seqs[i] = sh.seq
		sh.mu.RUnlock()
	}
	return seqs
}

// markGap is the minimum spacing between recorded watermarks; calls inside
// the gap are coalesced into the previous mark.
const markGap = time.Millisecond

// maxMarks bounds the watermark history; when full the history is thinned
// by dropping every other mark (ages stay provable, just coarser).
const maxMarks = 256

func (s *Store) recordMark(now time.Time, seqs []uint64) {
	s.markMu.Lock()
	defer s.markMu.Unlock()
	if n := len(s.marks); n > 0 && now.Sub(s.marks[n-1].t) < markGap {
		return
	}
	if len(s.marks) >= maxMarks {
		kept := s.marks[:0]
		for i := 0; i < len(s.marks); i += 2 {
			kept = append(kept, s.marks[i])
		}
		s.marks = kept
	}
	s.marks = append(s.marks, watermark{t: now, seqs: seqs})
}

// provableSince returns the time of the oldest watermark covering sequence
// seq on shard si, and whether any does.
func (s *Store) provableSince(si int, seq uint64) (time.Time, bool) {
	s.markMu.Lock()
	defer s.markMu.Unlock()
	// marks are time-ascending with monotonic seqs: binary-search the
	// first mark whose snapshot had already counted seq.
	lo, hi := 0, len(s.marks)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.marks[mid].seqs[si] >= seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(s.marks) {
		return time.Time{}, false
	}
	return s.marks[lo].t, true
}

// Leaked reports every live object whose provable age is at least
// olderThan, oldest first (by creation order). With olderThan <= 0 it
// reports all live objects. It records a watermark itself, so repeated
// calls build the age baseline automatically. Under the ownership contract
// above, any object that outlives the in-flight window of the channel is a
// leak: either a reference was never released or a header was lost.
func (s *Store) Leaked(olderThan time.Duration) []LeakRecord {
	now := time.Now()
	s.recordMark(now, s.snapshotSeqs())

	type liveObj struct {
		id   ID
		seq  uint64
		si   int
		refs int
		size int
	}
	var live []liveObj
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for id, e := range sh.objects {
			live = append(live, liveObj{
				id: id, seq: e.seq, si: si,
				refs: int(e.refs.Load()), size: len(e.data),
			})
		}
		sh.mu.RUnlock()
	}

	var out []LeakRecord
	for _, o := range live {
		var age time.Duration
		if t, ok := s.provableSince(o.si, o.seq); ok {
			age = now.Sub(t)
		}
		if olderThan > 0 && age < olderThan {
			continue
		}
		out = append(out, LeakRecord{ID: o.id, Refs: o.refs, Size: o.size, Age: age})
	}
	// IDs are allocated from one monotonic counter, so ascending ID order
	// is creation order: oldest first.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// VerifyDrained returns nil when the store holds no live objects, and
// otherwise an ErrNotDrained describing every live entry. Tests and
// Broker.Stop use it to assert that all reference counts returned to zero.
func (s *Store) VerifyDrained() error {
	leaks := s.Leaked(0)
	if len(leaks) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d live object(s):", len(leaks))
	for i, l := range leaks {
		if i == 8 {
			fmt.Fprintf(&b, " …(+%d more)", len(leaks)-i)
			break
		}
		fmt.Fprintf(&b, " [id=%d refs=%d size=%dB age=%v]", l.ID, l.Refs, l.Size, l.Age.Round(time.Millisecond))
	}
	return fmt.Errorf("%w: %s", ErrNotDrained, b.String())
}
