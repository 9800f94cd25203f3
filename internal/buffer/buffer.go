// Package buffer implements the send and receive buffers that sit inside
// every explorer and learner process (Fig. 2(a) of the paper).
//
// A buffer pairs a header queue with a data list: workhorse threads only do
// "simple local buffer reads and writes", while the sender/receiver threads
// of the asynchronous communication channel move whole messages between the
// buffer and the shared-memory communicator. The header queue is blocking,
// so the monitoring thread wakes the moment a message is staged.
package buffer

import (
	"sync"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/queue"
)

// Buffer is a staging area for messages inside a process. Headers flow
// through the blocking header queue; bodies sit in the data list keyed by
// message ID until consumed.
type Buffer struct {
	headers *queue.Queue[*message.Header]

	mu     sync.Mutex
	bodies map[uint64]any
}

// New returns an empty buffer.
func New() *Buffer {
	return &Buffer{
		headers: queue.New[*message.Header](),
		bodies:  make(map[uint64]any),
	}
}

// Put stages a whole message: the body joins the data list and the header
// joins the header queue, waking any thread blocked in NextHeader.
func (b *Buffer) Put(m *message.Message) error {
	b.mu.Lock()
	b.bodies[m.Header.ID] = m.Body
	b.mu.Unlock()
	if err := b.headers.Put(m.Header); err != nil {
		// Roll back the orphaned body so Close doesn't leak it.
		b.mu.Lock()
		delete(b.bodies, m.Header.ID)
		b.mu.Unlock()
		return err
	}
	return nil
}

// NextHeader blocks until a staged header is available (or the buffer is
// closed, returning queue.ErrClosed).
func (b *Buffer) NextHeader() (*message.Header, error) {
	return b.headers.Get()
}

// TakeBody removes and returns the body staged for the given header,
// or nil when absent.
func (b *Buffer) TakeBody(id uint64) any {
	b.mu.Lock()
	defer b.mu.Unlock()
	body := b.bodies[id]
	delete(b.bodies, id)
	return body
}

// Next blocks for the next full message (header + body).
func (b *Buffer) Next() (*message.Message, error) {
	h, err := b.NextHeader()
	if err != nil {
		return nil, err
	}
	return &message.Message{Header: h, Body: b.TakeBody(h.ID)}, nil
}

// NextTimeout is Next bounded by d: it returns queue.ErrTimeout when no
// message is staged within d.
func (b *Buffer) NextTimeout(d time.Duration) (*message.Message, error) {
	h, err := b.headers.GetTimeout(d)
	if err != nil {
		return nil, err
	}
	return &message.Message{Header: h, Body: b.TakeBody(h.ID)}, nil
}

// TryNext returns the next full message without blocking, or
// queue.ErrEmpty / queue.ErrClosed.
func (b *Buffer) TryNext() (*message.Message, error) {
	h, err := b.headers.TryGet()
	if err != nil {
		return nil, err
	}
	return &message.Message{Header: h, Body: b.TakeBody(h.ID)}, nil
}

// Len reports the number of staged headers.
func (b *Buffer) Len() int { return b.headers.Len() }

// Close closes the header queue; subsequent Puts fail and readers drain.
func (b *Buffer) Close() { b.headers.Close() }
