package objectstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPutGet(t *testing.T) {
	s := New()
	data := []byte("rollout payload")
	id := s.Put(data, 1)
	got, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
}

func TestGetIsZeroCopy(t *testing.T) {
	s := New()
	data := []byte{1, 2, 3}
	id := s.Put(data, 1)
	got, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if &got[0] != &data[0] {
		t.Fatal("Get copied the data; want shared backing array")
	}
}

func TestGetUnknown(t *testing.T) {
	s := New()
	if _, err := s.Get(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
}

func TestReleaseFreesAtZero(t *testing.T) {
	s := New()
	id := s.Put([]byte("x"), 2)
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := s.Get(id); err != nil {
		t.Fatalf("Get after first Release: %v (object should survive)", err)
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after final Release = %v, want ErrNotFound", err)
	}
}

func TestPinExtendsLifetime(t *testing.T) {
	s := New()
	id := s.Put([]byte("broadcast"), 1)
	if err := s.Pin(id); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.Refs(id) != 1 {
		t.Fatalf("Refs = %d, want 1", s.Refs(id))
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.Refs(id) != 0 {
		t.Fatalf("Refs after final release = %d, want 0", s.Refs(id))
	}
}

func TestReleaseUnknown(t *testing.T) {
	s := New()
	if err := s.Release(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Release unknown = %v, want ErrNotFound", err)
	}
}

func TestIDsNeverReused(t *testing.T) {
	s := New()
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := s.Put([]byte{byte(i)}, 1)
		if seen[id] {
			t.Fatalf("ID %d reused", id)
		}
		seen[id] = true
		if err := s.Release(id); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New()
	a := s.Put(make([]byte, 100), 1)
	b := s.Put(make([]byte, 50), 1)
	st := s.Stats()
	if st.Objects != 2 || st.Bytes != 150 {
		t.Fatalf("Stats = %+v, want Objects=2 Bytes=150", st)
	}
	if st.PeakBytes != 150 {
		t.Fatalf("PeakBytes = %d, want 150", st.PeakBytes)
	}
	if err := s.Release(a); err != nil {
		t.Fatalf("Release: %v", err)
	}
	st = s.Stats()
	if st.Objects != 1 || st.Bytes != 50 {
		t.Fatalf("Stats after release = %+v, want Objects=1 Bytes=50", st)
	}
	if st.PeakBytes != 150 {
		t.Fatalf("PeakBytes after release = %d, want 150 (high-water mark)", st.PeakBytes)
	}
	if err := s.Release(b); err != nil {
		t.Fatalf("Release: %v", err)
	}
	st = s.Stats()
	if st.TotalPut != 2 || st.TotalReleased != 2 {
		t.Fatalf("TotalPut/TotalReleased = %d/%d, want 2/2", st.TotalPut, st.TotalReleased)
	}
}

func TestPutZeroRefsTreatedAsOne(t *testing.T) {
	s := New()
	id := s.Put([]byte("x"), 0)
	if got := s.Refs(id); got != 1 {
		t.Fatalf("Refs = %d, want 1", got)
	}
}

func TestConcurrentBroadcastLifecycle(t *testing.T) {
	const receivers = 16
	s := New()
	id := s.Put(make([]byte, 1024), receivers)
	var wg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(id); err != nil {
				t.Errorf("Get: %v", err)
			}
			if err := s.Release(id); err != nil {
				t.Errorf("Release: %v", err)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after all receivers released, want 0", s.Len())
	}
}

// TestPropertyByteAccounting: for any sequence of payload sizes, the store's
// byte accounting equals the sum of live payload sizes at every step.
func TestPropertyByteAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := New()
		var live int64
		ids := make([]ID, 0, len(sizes))
		for _, sz := range sizes {
			n := int(sz % 4096)
			ids = append(ids, s.Put(make([]byte, n), 1))
			live += int64(n)
			if s.Stats().Bytes != live {
				return false
			}
		}
		for i, id := range ids {
			if err := s.Release(id); err != nil {
				return false
			}
			live -= int64(sizes[i] % 4096)
			if s.Stats().Bytes != live {
				return false
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPutGetRelease(b *testing.B) {
	s := New()
	payload := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := s.Put(payload, 1)
		if _, err := s.Get(id); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReleaseUnknownCountsError(t *testing.T) {
	s := New()
	id := s.Put([]byte("x"), 1)
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.Release(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Release = %v, want ErrNotFound", err)
	}
	if got := s.Stats().ReleaseErrors; got != 1 {
		t.Fatalf("ReleaseErrors = %d, want 1", got)
	}
}

func TestLeakedReportsAgedEntries(t *testing.T) {
	s := New()
	old := s.Put(make([]byte, 64), 2)
	// Backdate a watermark covering the first entry so an age threshold
	// separates the two (the hot path records no timestamps; observers do).
	seqs := s.snapshotSeqs()
	s.markMu.Lock()
	s.marks = append(s.marks, watermark{t: time.Now().Add(-time.Minute), seqs: seqs})
	s.markMu.Unlock()
	fresh := s.Put(make([]byte, 32), 1)

	all := s.Leaked(0)
	if len(all) != 2 {
		t.Fatalf("Leaked(0) = %d records, want 2", len(all))
	}
	if all[0].ID != old {
		t.Fatalf("Leaked not ordered oldest-first: got id %d", all[0].ID)
	}

	aged := s.Leaked(10 * time.Second)
	if len(aged) != 1 {
		t.Fatalf("Leaked(10s) = %d records, want 1", len(aged))
	}
	r := aged[0]
	if r.ID != old || r.Refs != 2 || r.Size != 64 || r.Age < 50*time.Second {
		t.Fatalf("leak record = %+v", r)
	}
	_ = fresh
}

func TestCheckpointEstablishesAges(t *testing.T) {
	s := New()
	id := s.Put([]byte("pinned"), 1)
	if leaks := s.Leaked(time.Millisecond); len(leaks) != 0 {
		t.Fatalf("Leaked(1ms) before any baseline = %d records, want 0 (age unprovable)", len(leaks))
	}
	s.Checkpoint()
	time.Sleep(5 * time.Millisecond)
	leaks := s.Leaked(time.Millisecond)
	if len(leaks) != 1 || leaks[0].ID != id {
		t.Fatalf("Leaked(1ms) after checkpoint = %+v, want the live object", leaks)
	}
	if leaks[0].Age < time.Millisecond {
		t.Fatalf("Age = %v, want >= 1ms", leaks[0].Age)
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestNewShardedRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := NewSharded(tc.in).NumShards(); got != tc.want {
			t.Errorf("NewSharded(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	n := New().NumShards()
	if n < 8 || n > 128 || n&(n-1) != 0 {
		t.Fatalf("New().NumShards() = %d, want a power of two in [8, 128]", n)
	}
}

// TestGetWhileConcurrentFinalRelease exercises the documented race rule:
// Get is safe concurrently with another holder's Release as long as the
// getter holds a reference of its own. Run with -race.
func TestGetWhileConcurrentFinalRelease(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		id := s.Put([]byte{1, 2, 3, 4}, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// This goroutine owns one reference: Get is valid until its
			// own Release, regardless of the other holder's timing.
			data, err := s.Get(id)
			if err != nil {
				t.Errorf("Get: %v", err)
			} else if len(data) != 4 {
				t.Errorf("len(data) = %d, want 4", len(data))
			}
			if err := s.Release(id); err != nil {
				t.Errorf("Release: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := s.Release(id); err != nil {
				t.Errorf("Release: %v", err)
			}
		}()
		wg.Wait()
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBroadcastAcrossShards is the sharded store's stress test:
// many producers broadcast objects to many consumers; every consumer gets
// and releases its own reference concurrently. Run with -race.
func TestConcurrentBroadcastAcrossShards(t *testing.T) {
	const (
		producers = 8
		objects   = 50
		receivers = 8
	)
	s := NewSharded(8)
	ids := make(chan ID, producers*objects)
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			for i := 0; i < objects; i++ {
				ids <- s.Put(make([]byte, 256), receivers)
			}
		}()
	}
	var cons sync.WaitGroup
	for r := 0; r < receivers; r++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			// Objects carry `receivers` references, so refs stay positive
			// throughout this phase: Get here never races a final Release.
			for id := range ids {
				if _, err := s.Get(id); err != nil {
					t.Errorf("Get: %v", err)
				}
				if err := s.Release(id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}
	prod.Wait()
	close(ids)
	cons.Wait()
	// Each object was released once by whichever consumer popped it;
	// release the remaining receivers-1 references concurrently.
	var rel sync.WaitGroup
	for id := ID(1); id <= producers*objects; id++ {
		rel.Add(1)
		go func(id ID) {
			defer rel.Done()
			for k := 0; k < receivers-1; k++ {
				if err := s.Release(id); err != nil {
					t.Errorf("Release %d: %v", id, err)
				}
			}
		}(id)
	}
	rel.Wait()
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TotalPut != producers*objects || st.TotalReleased != producers*objects {
		t.Fatalf("TotalPut/TotalReleased = %d/%d, want %d/%d",
			st.TotalPut, st.TotalReleased, producers*objects, producers*objects)
	}
	if st.ReleaseErrors != 0 {
		t.Fatalf("ReleaseErrors = %d, want 0", st.ReleaseErrors)
	}
}

// TestPropertyShardStatsSumToGlobal checks the aggregation invariant: for
// any operation sequence, Stats() equals the field-wise sum of the shards'
// snapshots and matches a model of the old single-mutex store's counters
// (PeakBytes is an upper bound on the model's global high-water mark).
func TestPropertyShardStatsSumToGlobal(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSharded(8)
		var model Stats
		var modelBytes int64
		live := make(map[ID]int64)
		var liveIDs []ID
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // put
				n := int64(op % 512)
				id := s.Put(make([]byte, n), 1)
				live[id] = n
				liveIDs = append(liveIDs, id)
				model.Objects++
				model.TotalPut++
				modelBytes += n
				if modelBytes > model.PeakBytes {
					model.PeakBytes = modelBytes
				}
			case 2: // release oldest live, or a bogus id
				if len(liveIDs) == 0 {
					_ = s.Release(ID(1 << 40))
					model.ReleaseErrors++
					continue
				}
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				if err := s.Release(id); err != nil {
					return false
				}
				model.Objects--
				model.TotalReleased++
				modelBytes -= live[id]
				delete(live, id)
			}
		}
		model.Bytes = modelBytes
		got := s.Stats()
		var sum Stats
		for i := range s.shards {
			sum.add(s.shards[i].snapshot())
		}
		// The budget fields are store-global: shard snapshots leave them zero,
		// so clear them on a copy before the field-wise comparison. The
		// serial workload makes the exact global peak equal the model's.
		perShard := got
		perShard.Budget, perShard.PeakLiveBytes = 0, 0
		perShard.Backpressure = false
		perShard.BackpressureEnters, perShard.BudgetRejects = 0, 0
		if perShard != sum {
			return false
		}
		if got.PeakLiveBytes != model.PeakBytes {
			return false
		}
		return got.Objects == model.Objects &&
			got.Bytes == model.Bytes &&
			got.TotalPut == model.TotalPut &&
			got.TotalReleased == model.TotalReleased &&
			got.ReleaseErrors == model.ReleaseErrors &&
			got.PeakBytes >= model.PeakBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPutGetReleaseParallel is the contended lifecycle: every
// goroutine runs the broadcast hot path (put, get, pin, release, release)
// against one shared store; -cpu 1,2,4,8 sweeps the goroutine count.
func BenchmarkPutGetReleaseParallel(b *testing.B) {
	s := New()
	payload := make([]byte, 4096)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := s.Put(payload, 1)
			if _, err := s.Get(id); err != nil {
				b.Error(err)
				return
			}
			if err := s.Pin(id); err != nil {
				b.Error(err)
				return
			}
			if err := s.Release(id); err != nil {
				b.Error(err)
				return
			}
			if err := s.Release(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func TestBudgetTryPutRejectsAtHighWatermark(t *testing.T) {
	// Budget 1000, default watermarks: high 850, low 600.
	s := New(WithBudget(1000))
	if s.Budget() != 1000 {
		t.Fatalf("Budget = %d, want 1000", s.Budget())
	}
	a, err := s.TryPut(make([]byte, 800), 1)
	if err != nil {
		t.Fatalf("TryPut under watermark: %v", err)
	}
	if s.Pressured() {
		t.Fatal("pressured at 800 live with high watermark 850")
	}
	// Crossing the high watermark via Put flips pressure on even without a
	// reject: privileged admissions are counted too.
	b := s.Put(make([]byte, 100), 1)
	if !s.Pressured() {
		t.Fatal("not pressured at 900 live with high watermark 850")
	}
	for _, id := range []ID{a, b} {
		if err := s.Release(id); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
}

func TestBudgetBackpressureLifecycle(t *testing.T) {
	s := New(WithBudget(1000)) // high 850, low 600
	a, err := s.TryPut(make([]byte, 500), 1)
	if err != nil {
		t.Fatalf("TryPut 500: %v", err)
	}
	if s.Pressured() {
		t.Fatal("pressured at 500/850")
	}
	b, err := s.TryPut(make([]byte, 300), 1)
	if err != nil {
		t.Fatalf("TryPut 300: %v", err)
	}
	if s.Pressured() {
		t.Fatal("pressured at 800/850")
	}
	// 800 + 100 > 850: rejected, and the reject flips backpressure on.
	if _, err := s.TryPut(make([]byte, 100), 1); !errors.Is(err, ErrBudget) {
		t.Fatalf("TryPut over watermark = %v, want ErrBudget", err)
	}
	if !s.Pressured() {
		t.Fatal("not pressured after a budget reject")
	}
	// Privileged Put still succeeds past the watermark, inside the reserved
	// headroom band.
	c := s.Put(make([]byte, 150), 1)
	st := s.Stats()
	if st.PeakLiveBytes != 950 {
		t.Fatalf("PeakLiveBytes = %d, want 950", st.PeakLiveBytes)
	}
	if st.PeakLiveBytes > st.Budget {
		t.Fatalf("PeakLiveBytes %d exceeds budget %d", st.PeakLiveBytes, st.Budget)
	}
	if st.BudgetRejects != 1 || st.BackpressureEnters != 1 || !st.Backpressure {
		t.Fatalf("budget stats = rejects %d enters %d backpressure %v, want 1/1/true",
			st.BudgetRejects, st.BackpressureEnters, st.Backpressure)
	}
	// Dropping to 450 live (<= low watermark 600) clears backpressure.
	if err := s.Release(a); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.Pressured() {
		t.Fatal("still pressured at 450 live, below the 600 low watermark")
	}
	// TryPut admits again once pressure clears.
	d, err := s.TryPut(make([]byte, 100), 1)
	if err != nil {
		t.Fatalf("TryPut after recovery: %v", err)
	}
	for _, id := range []ID{b, c, d} {
		if err := s.Release(id); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BackpressureEnters != 1 {
		t.Fatalf("BackpressureEnters = %d, want exactly 1 episode", st.BackpressureEnters)
	}
}

func TestBudgetWatermarkOverride(t *testing.T) {
	s := New(WithBudget(1000), WithWatermarks(0.5, 0.2))
	if _, err := s.TryPut(make([]byte, 600), 1); !errors.Is(err, ErrBudget) {
		t.Fatalf("TryPut 600 with high=500 = %v, want ErrBudget", err)
	}
	// Invalid fractions keep the defaults.
	s2 := New(WithBudget(1000), WithWatermarks(2.0, -1))
	if _, err := s2.TryPut(make([]byte, 600), 1); err != nil {
		t.Fatalf("TryPut 600 with default high=850: %v", err)
	}
}

func TestUnboundedTryPutNeverFails(t *testing.T) {
	s := New()
	id, err := s.TryPut(make([]byte, 1<<20), 1)
	if err != nil {
		t.Fatalf("TryPut on unbounded store: %v", err)
	}
	if s.Pressured() {
		t.Fatal("unbounded store reports backpressure")
	}
	st := s.Stats()
	if st.Budget != 0 || st.PeakLiveBytes != 1<<20 {
		t.Fatalf("Stats = Budget %d PeakLiveBytes %d, want 0 / %d", st.Budget, st.PeakLiveBytes, 1<<20)
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// TestBudgetConcurrentTryPutNeverOvershoots drives many concurrent TryPuts
// against a tight budget and proves the CAS-reserve admission keeps the
// exact global peak within budget. Run with -race.
func TestBudgetConcurrentTryPutNeverOvershoots(t *testing.T) {
	const budget = 64 * 1024
	s := New(WithBudget(budget))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id, err := s.TryPut(make([]byte, 1024), 1)
				if err != nil {
					continue // shed; nothing to release
				}
				if err := s.Release(id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.PeakLiveBytes > budget {
		t.Fatalf("PeakLiveBytes = %d, exceeds budget %d", st.PeakLiveBytes, budget)
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDrained(t *testing.T) {
	s := New()
	if err := s.VerifyDrained(); err != nil {
		t.Fatalf("VerifyDrained on empty store: %v", err)
	}
	id := s.Put([]byte("pinned"), 1)
	err := s.VerifyDrained()
	if !errors.Is(err, ErrNotDrained) {
		t.Fatalf("VerifyDrained with live object = %v, want ErrNotDrained", err)
	}
	if err := s.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatalf("VerifyDrained after release: %v", err)
	}
}
