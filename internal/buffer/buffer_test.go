package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/queue"
)

func msg(body any) *message.Message {
	return message.New(message.TypeDummy, "src", []string{"dst"}, body)
}

func TestPutNext(t *testing.T) {
	b := New()
	in := msg("payload")
	if err := b.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out, err := b.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if out.Header.ID != in.Header.ID || out.Body != "payload" {
		t.Fatalf("Next = %+v", out)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after drain", b.Len())
	}
}

func TestBodyRemovedAfterTake(t *testing.T) {
	b := New()
	in := msg("x")
	if err := b.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if body := b.TakeBody(in.Header.ID); body != "x" {
		t.Fatalf("TakeBody = %v", body)
	}
	if body := b.TakeBody(in.Header.ID); body != nil {
		t.Fatalf("second TakeBody = %v, want nil", body)
	}
}

func TestTryNextEmpty(t *testing.T) {
	b := New()
	if _, err := b.TryNext(); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("TryNext on empty = %v, want ErrEmpty", err)
	}
}

func TestCloseUnblocksAndRejects(t *testing.T) {
	b := New()
	done := make(chan error, 1)
	go func() {
		_, err := b.Next()
		done <- err
	}()
	b.Close()
	if err := <-done; !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
	if err := b.Put(msg("y")); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

func TestNextTimeout(t *testing.T) {
	b := New()
	if _, err := b.NextTimeout(time.Millisecond); !errors.Is(err, queue.ErrTimeout) {
		t.Fatalf("NextTimeout on an empty buffer = %v, want ErrTimeout", err)
	}
	in := msg("z")
	if err := b.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out, err := b.NextTimeout(time.Millisecond)
	if err != nil || out.Header.ID != in.Header.ID || out.Body != "z" {
		t.Fatalf("NextTimeout = %+v, %v", out, err)
	}
	b.Close()
	if _, err := b.NextTimeout(time.Second); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("NextTimeout after Close = %v, want ErrClosed", err)
	}
}

func TestFIFOAcrossManyMessages(t *testing.T) {
	b := New()
	const n = 100
	var ids []uint64
	for i := 0; i < n; i++ {
		m := msg(i)
		ids = append(ids, m.Header.ID)
		if err := b.Put(m); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		out, err := b.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if out.Header.ID != ids[i] {
			t.Fatalf("message %d out of order", i)
		}
		if out.Body != i {
			t.Fatalf("body = %v, want %d", out.Body, i)
		}
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	b := New()
	const n = 1000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Put(msg(i)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	seen := 0
	for seen < n {
		m, err := b.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if m.Body == nil {
			t.Fatal("nil body for staged message")
		}
		seen++
	}
	wg.Wait()
}
