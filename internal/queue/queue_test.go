package queue

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		if err := q.Put(i); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := q.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got != i {
			t.Fatalf("Get = %d, want %d", got, i)
		}
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	q := New[string]()
	done := make(chan string)
	go func() {
		v, err := q.Get()
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Get returned before Put")
	default:
	}
	if err := q.Put("hello"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("Get = %q, want %q", v, "hello")
		}
	case <-timer.C:
		t.Fatal("Get did not wake after Put")
	}
}

func TestTryGetEmpty(t *testing.T) {
	q := New[int]()
	if _, err := q.TryGet(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("TryGet on empty = %v, want ErrEmpty", err)
	}
}

func TestGetTimeout(t *testing.T) {
	q := New[int]()
	start := time.Now()
	_, err := q.GetTimeout(30 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("GetTimeout = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("GetTimeout returned after %v, want >= 25ms", elapsed)
	}
}

func TestGetTimeoutReceives(t *testing.T) {
	q := New[int]()
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = q.Put(7)
	}()
	v, err := q.GetTimeout(time.Second)
	if err != nil {
		t.Fatalf("GetTimeout: %v", err)
	}
	if v != 7 {
		t.Fatalf("GetTimeout = %d, want 7", v)
	}
}

func TestCloseDrains(t *testing.T) {
	q := New[int]()
	for i := 0; i < 3; i++ {
		if err := q.Put(i); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	q.Close()
	if err := q.Put(99); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	for i := 0; i < 3; i++ {
		v, err := q.Get()
		if err != nil {
			t.Fatalf("Get after Close: %v", err)
		}
		if v != i {
			t.Fatalf("Get = %d, want %d", v, i)
		}
	}
	if _, err := q.Get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on drained closed queue = %v, want ErrClosed", err)
	}
}

func TestCloseWakesBlockedGetters(t *testing.T) {
	q := New[int]()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.Get()
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Get after Close = %v, want ErrClosed", err)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	q := New[int]()
	q.Close()
	q.Close()
	if !q.closed {
		t.Fatal("queue not closed after Close")
	}
}

func TestBoundedPutBlocks(t *testing.T) {
	q := NewBounded[int](2)
	if err := q.Put(1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := q.Put(2); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := q.TryPut(3); !errors.Is(err, ErrFull) {
		t.Fatalf("TryPut on full = %v, want ErrFull", err)
	}
	unblocked := make(chan error, 1)
	go func() {
		unblocked <- q.Put(3)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-unblocked:
		t.Fatal("Put on full queue returned before Get")
	default:
	}
	if _, err := q.Get(); err != nil {
		t.Fatalf("Get: %v", err)
	}
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("unblocked Put: %v", err)
		}
	case <-timer.C:
		t.Fatal("Put did not unblock after Get")
	}
}

func TestCloseWakesBlockedPutters(t *testing.T) {
	q := NewBounded[int](1)
	if err := q.Put(1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- q.Put(2)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Put after Close = %v, want ErrClosed", err)
		}
	case <-timer.C:
		t.Fatal("Put did not unblock after Close")
	}
}

func TestLen(t *testing.T) {
	q := New[int]()
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	for i := 0; i < 5; i++ {
		_ = q.Put(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	_, _ = q.Get()
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers    = 8
		itemsPerProd = 500
	)
	q := NewBounded[int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < itemsPerProd; i++ {
				if err := q.Put(p*itemsPerProd + i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()

	seen := make(map[int]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, err := q.Get()
				if err != nil {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate item %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	cg.Wait()
	if len(seen) != producers*itemsPerProd {
		t.Fatalf("consumed %d items, want %d", len(seen), producers*itemsPerProd)
	}
}

// TestPropertyDrainOrder checks, for arbitrary batches, that a put-all /
// get-all cycle returns exactly the input sequence (FIFO invariant).
func TestPropertyDrainOrder(t *testing.T) {
	f := func(items []int32) bool {
		q := New[int32]()
		for _, it := range items {
			if err := q.Put(it); err != nil {
				return false
			}
		}
		for _, want := range items {
			got, err := q.Get()
			if err != nil || got != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInterleavedLen checks Len is consistent under arbitrary
// interleavings of puts and gets encoded as a boolean program.
func TestPropertyInterleavedLen(t *testing.T) {
	f := func(ops []bool) bool {
		q := New[int]()
		want := 0
		for i, put := range ops {
			if put {
				if err := q.Put(i); err != nil {
					return false
				}
				want++
			} else if want > 0 {
				if _, err := q.Get(); err != nil {
					return false
				}
				want--
			}
			if q.Len() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPutGet(b *testing.B) {
	q := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Put(i)
		_, _ = q.Get()
	}
}

func BenchmarkContended(b *testing.B) {
	q := NewBounded[int](1024)
	done := make(chan struct{})
	go func() {
		for {
			if _, err := q.Get(); err != nil {
				close(done)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = q.Put(1)
		}
	})
	q.Close()
	<-done
}

// TestGetTimeoutDoesNotWakeOthers asserts the timeout path is private to
// the expiring caller: an unrelated blocked Get stays asleep (its waiter
// remains registered and unsignaled) across another consumer's timeout.
func TestGetTimeoutDoesNotWakeOthers(t *testing.T) {
	q := New[int]()
	got := make(chan int, 1)
	go func() {
		v, err := q.Get()
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got <- v
	}()
	deadline := time.Now().Add(time.Second)
	for q.waiterCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocked Get never registered a waiter")
		}
		time.Sleep(time.Millisecond)
	}
	q.mu.Lock()
	blocked := q.waiters[0]
	q.mu.Unlock()

	if _, err := q.GetTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("GetTimeout = %v, want ErrTimeout", err)
	}

	q.mu.Lock()
	stillWaiting := len(q.waiters) == 1 && q.waiters[0] == blocked && !blocked.signaled
	q.mu.Unlock()
	if !stillWaiting {
		t.Fatal("timeout disturbed an unrelated blocked Get")
	}
	if err := q.Put(42); err != nil {
		t.Fatalf("Put: %v", err)
	}
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("Get = %d, want 42", v)
		}
	case <-timer.C:
		t.Fatal("blocked Get did not wake after Put")
	}
}

// TestPutWakesExactlyOneWaiter asserts a single Put releases one blocked
// consumer, not the whole herd.
func TestPutWakesExactlyOneWaiter(t *testing.T) {
	q := New[int]()
	const consumers = 4
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = q.Get() // one receives the item, the rest drain on Close
		}()
	}
	deadline := time.Now().Add(time.Second)
	for q.waiterCount() != consumers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters registered", q.waiterCount(), consumers)
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Put(1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	deadline = time.Now().Add(time.Second)
	for q.waiterCount() != consumers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters = %d after one Put, want %d", q.waiterCount(), consumers-1)
		}
		time.Sleep(time.Millisecond)
	}
	// Hold briefly: no additional waiter may wake without an item.
	time.Sleep(20 * time.Millisecond)
	if n := q.waiterCount(); n != consumers-1 {
		t.Fatalf("waiters = %d, want %d (spurious wakeups)", n, consumers-1)
	}
	q.Close()
	wg.Wait()
}

// TestGetTimeoutRaceWithPut hammers the signal/timeout race: items put
// right at the deadline must either be delivered or remain in the queue —
// never stranded while a consumer times out AND the item is lost.
func TestGetTimeoutRaceWithPut(t *testing.T) {
	for i := 0; i < 200; i++ {
		q := New[int]()
		done := make(chan bool, 1)
		go func() {
			_, err := q.GetTimeout(time.Duration(i%3) * time.Millisecond)
			done <- err == nil
		}()
		time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
		putOK := q.TryPut(7) == nil
		received := <-done
		if putOK && !received {
			// The consumer timed out; the item must still be retrievable.
			if v, err := q.TryGet(); err != nil || v != 7 {
				t.Fatalf("iter %d: item stranded: v=%d err=%v", i, v, err)
			}
		}
	}
}

func TestPopIf(t *testing.T) {
	q := New[int]()
	if _, ok := q.PopIf(func(int) bool { return true }); ok {
		t.Fatal("PopIf on empty queue returned ok")
	}
	for _, v := range []int{1, 2, 3} {
		if err := q.Put(v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Predicate false: head stays put.
	if _, ok := q.PopIf(func(v int) bool { return v != 1 }); ok {
		t.Fatal("PopIf popped despite false predicate")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after refused PopIf, want 3", q.Len())
	}
	// Predicate true: pops exactly the head, in FIFO order.
	v, ok := q.PopIf(func(v int) bool { return v == 1 })
	if !ok || v != 1 {
		t.Fatalf("PopIf = (%d, %v), want (1, true)", v, ok)
	}
	if got, err := q.Get(); err != nil || got != 2 {
		t.Fatalf("Get after PopIf = (%d, %v), want (2, nil)", got, err)
	}
}

func TestPopIfFreesBoundedCapacity(t *testing.T) {
	q := NewBounded[int](2)
	if err := q.TryPut(1); err != nil {
		t.Fatalf("TryPut: %v", err)
	}
	if err := q.TryPut(2); err != nil {
		t.Fatalf("TryPut: %v", err)
	}
	if err := q.TryPut(3); err != ErrFull {
		t.Fatalf("TryPut on full queue = %v, want ErrFull", err)
	}
	if _, ok := q.PopIf(func(int) bool { return true }); !ok {
		t.Fatal("PopIf on full queue failed")
	}
	// Shedding the head made room for the newer item.
	if err := q.TryPut(3); err != nil {
		t.Fatalf("TryPut after PopIf: %v", err)
	}
}
