// Package queue provides blocking FIFO queues with close semantics.
//
// These queues are the Go analogue of Python's queue.Queue and
// multiprocessing.Queue that the XingTian paper builds its asynchronous
// communication channel on: a monitoring goroutine blocks on Get and wakes
// the moment a producer puts a new item, which is what makes the channel
// event-driven rather than polled.
//
// Consumers wait on per-waiter channels rather than a shared condition
// variable: each Put wakes exactly one blocked Get (FIFO), and a GetTimeout
// deadline expires only its own waiter. A timeout therefore never causes a
// thundering herd of unrelated consumers re-contending the queue lock.
package queue

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a queue that has been closed and,
// for Get, fully drained.
var ErrClosed = errors.New("queue: closed")

// ErrTimeout is returned by GetTimeout when the deadline expires before an
// item becomes available.
var ErrTimeout = errors.New("queue: timeout")

// ErrEmpty is returned by TryGet when the queue is empty.
var ErrEmpty = errors.New("queue: empty")

// ErrFull is returned by TryPut when a bounded queue is at capacity.
var ErrFull = errors.New("queue: full")

// waiter is one blocked consumer. ch is closed (under the queue lock) to
// wake it; signaled records that the wakeup was delivered so a racing
// timeout can tell a consumed slot from an expired one.
type waiter struct {
	ch       chan struct{}
	signaled bool
}

// Queue is an unbounded (or bounded, see NewBounded) blocking FIFO.
// The zero value is not usable; construct with New or NewBounded.
type Queue[T any] struct {
	mu       sync.Mutex
	waiters  []*waiter // blocked consumers, FIFO
	notFull  *sync.Cond
	items    []T
	head     int
	capacity int // 0 means unbounded
	closed   bool
}

// New returns an unbounded queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// NewBounded returns a queue that holds at most capacity items; Put blocks
// while full. capacity must be positive.
func NewBounded[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		capacity = 1
	}
	q := New[T]()
	q.capacity = capacity
	return q
}

// wakeOne wakes the oldest blocked consumer, if any. Caller holds q.mu.
func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters[0] = nil
	q.waiters = q.waiters[1:]
	w.signaled = true
	close(w.ch)
}

// wakeAll wakes every blocked consumer (Close). Caller holds q.mu.
func (q *Queue[T]) wakeAll() {
	for _, w := range q.waiters {
		w.signaled = true
		close(w.ch)
	}
	q.waiters = nil
}

// removeWaiter unregisters a waiter that gave up (timeout). Caller holds
// q.mu. Reports whether the waiter was still registered.
func (q *Queue[T]) removeWaiter(w *waiter) bool {
	for i, other := range q.waiters {
		if other == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Put appends item, blocking while a bounded queue is full.
// It returns ErrClosed if the queue is closed.
func (q *Queue[T]) Put(item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.capacity > 0 && q.size() >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.push(item)
	q.wakeOne()
	return nil
}

// TryPut appends item without blocking. It returns ErrFull when a bounded
// queue is at capacity and ErrClosed when the queue is closed.
func (q *Queue[T]) TryPut(item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.capacity > 0 && q.size() >= q.capacity {
		return ErrFull
	}
	q.push(item)
	q.wakeOne()
	return nil
}

// Get removes and returns the oldest item, blocking until one is available.
// After Close, Get keeps returning queued items until the queue drains, then
// returns ErrClosed.
func (q *Queue[T]) Get() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size() == 0 && !q.closed {
		w := &waiter{ch: make(chan struct{})}
		q.waiters = append(q.waiters, w)
		q.mu.Unlock()
		<-w.ch
		q.mu.Lock()
	}
	return q.popLocked()
}

// TryGet removes and returns the oldest item without blocking, or ErrEmpty.
func (q *Queue[T]) TryGet() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size() == 0 {
		var zero T
		if q.closed {
			return zero, ErrClosed
		}
		return zero, ErrEmpty
	}
	return q.popLocked()
}

// PopIf removes and returns the head item when pred(head) reports true.
// It never blocks: an empty queue or a false predicate returns the zero
// value and false. Checking and popping happen under one lock acquisition,
// so PopIf is the race-free primitive for shed-oldest admission — a broker
// under backpressure drops the oldest *droppable* header without ever
// popping a privileged one.
func (q *Queue[T]) PopIf(pred func(T) bool) (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.size() == 0 {
		return zero, false
	}
	if !pred(q.items[q.head]) {
		return zero, false
	}
	item, _ := q.popLocked()
	return item, true
}

// GetTimeout behaves like Get but gives up after d, returning ErrTimeout.
// Only the expiring caller wakes; other blocked consumers sleep on.
func (q *Queue[T]) GetTimeout(d time.Duration) (T, error) {
	deadline := time.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size() == 0 && !q.closed {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			var zero T
			return zero, ErrTimeout
		}
		w := &waiter{ch: make(chan struct{})}
		q.waiters = append(q.waiters, w)
		q.mu.Unlock()
		timer := time.NewTimer(remaining)
		select {
		case <-w.ch:
			timer.Stop()
			q.mu.Lock()
		case <-timer.C:
			q.mu.Lock()
			if !w.signaled {
				// Expired unsignaled: unregister and report the timeout on
				// the next loop iteration (remaining <= 0).
				q.removeWaiter(w)
			}
			// If a wakeup raced the timer, the slot was consumed on our
			// behalf; fall through and re-check the queue as a normal wake.
		}
	}
	return q.popLocked()
}

func (q *Queue[T]) popLocked() (T, error) {
	if q.size() == 0 {
		var zero T
		return zero, ErrClosed
	}
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release reference for GC
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	q.notFull.Signal()
	return item, nil
}

func (q *Queue[T]) push(item T) {
	q.items = append(q.items, item)
}

func (q *Queue[T]) size() int {
	return len(q.items) - q.head
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size()
}

// waiterCount reports the number of blocked consumers (for tests).
func (q *Queue[T]) waiterCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// Close marks the queue closed. Pending and future Puts fail with ErrClosed;
// Gets drain remaining items and then fail with ErrClosed. Close is
// idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.wakeAll()
	q.notFull.Broadcast()
}
