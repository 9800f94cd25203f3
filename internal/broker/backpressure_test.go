package broker

import (
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// waitRouted blocks until the broker's router has dispatched n headers.
func waitRouted(t *testing.T, b *Broker, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.health.headersRouted.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("routed %d of %d headers", b.health.headersRouted.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedQueueDepthFloodDrains floods a depth-limited destination queue
// with droppable traffic that is never received: the router must shed
// oldest-first, keep the queue bounded, account every shed in the drop
// taxonomy, and release every shed reference (VerifyDrained clean).
func TestShedQueueDepthFloodDrains(t *testing.T) {
	const depth, sends = 4, 50
	b := New(Config{MachineID: 0, ShedQueueDepth: depth})
	t.Cleanup(b.Stop)
	s, _ := b.Register("s")
	r, _ := b.Register("r")

	for i := 0; i < sends; i++ {
		if err := s.Send(dummyMsg("s", []string{"r"}, make([]byte, 256))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	waitRouted(t, b, sends)

	if p := r.Pending(); p > depth {
		t.Fatalf("Pending = %d, want <= shed depth %d", p, depth)
	}
	m := b.Metrics()
	if m.Drops.ShedOldest == 0 {
		t.Fatal("no oldest-first sheds recorded under a flooded depth limit")
	}
	if m.ShedBytes == 0 {
		t.Fatal("ShedBytes = 0 with sheds recorded")
	}
	if got := m.Drops.ShedOldest + int64(r.Pending()); got != sends {
		t.Fatalf("sheds(%d) + pending(%d) = %d, want %d", m.Drops.ShedOldest, r.Pending(), got, sends)
	}

	// A privileged weights message rides through untouched even though the
	// queue sits at its depth limit.
	w := &message.WeightsPayload{Version: 7, Data: []float32{1}}
	if err := s.Send(message.New(message.TypeWeights, "s", []string{"r"}, w)); err != nil {
		t.Fatalf("Send weights: %v", err)
	}
	waitRouted(t, b, sends+1)

	// Drain everything still queued; the weights message must arrive.
	var gotWeights bool
	for r.Pending() > 0 {
		msg, err := r.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if msg.Header.Type == message.TypeWeights {
			gotWeights = true
		}
	}
	if !gotWeights {
		t.Fatal("privileged weights message was shed")
	}
	if err := b.VerifyDrained(); err != nil {
		t.Fatalf("refs leaked after flood + sheds: %v", err)
	}
	if m := b.Metrics(); m.ReleaseErrors != 0 {
		t.Fatalf("ReleaseErrors = %d, want 0", m.ReleaseErrors)
	}
}

// TestStoreBudgetBoundsBytesUnderFlood floods a bounded broker with
// droppable traffic that is never received: admission refusals (TryPut) and
// oldest-first sheds must keep the store's exact live-byte peak within the
// budget, with every declined or shed body accounted for.
func TestStoreBudgetBoundsBytesUnderFlood(t *testing.T) {
	const budget = 32 * 1024
	b := New(Config{MachineID: 0, StoreBudget: budget})
	t.Cleanup(b.Stop)
	s, _ := b.Register("s")
	r, _ := b.Register("r")

	const sends = 200
	for i := 0; i < sends; i++ {
		// 2 KB bodies: ~16 admissions hit the high watermark (85% of 32 KB).
		if err := s.Send(dummyMsg("s", []string{"r"}, make([]byte, 2048))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	m := b.Metrics()
	if m.Store.PeakLiveBytes > budget {
		t.Fatalf("PeakLiveBytes = %d, exceeds budget %d", m.Store.PeakLiveBytes, budget)
	}
	if m.Drops.StoreBudget == 0 && m.Drops.ShedOldest == 0 {
		t.Fatal("flood past the budget recorded neither admission refusals nor sheds")
	}
	if m.Store.BackpressureEnters == 0 {
		t.Fatal("store never entered backpressure mode")
	}

	// Drain whatever survived, then prove nothing leaked.
	waitRouted(t, b, m.Sends)
	for r.Pending() > 0 {
		if _, err := r.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	if err := b.VerifyDrained(); err != nil {
		t.Fatalf("refs leaked: %v", err)
	}
}

// packBody marshals and frames a payload the way a sending machine's Port
// would before forwarding it across the wire.
func packBody(t *testing.T, body any) []byte {
	t.Helper()
	raw, err := serialize.Marshal(body)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	framed, _ := serialize.Compressor{}.Pack(raw)
	return framed
}

// TestInjectRemoteBudgetRefusal drives the cross-machine inject path into a
// bounded store: refused trajectory injections are counted (one declined
// reference per local receiver) and create no store reference, while a
// privileged injection is always admitted.
func TestInjectRemoteBudgetRefusal(t *testing.T) {
	const budget = 8 * 1024
	b := New(Config{MachineID: 0, StoreBudget: budget})
	t.Cleanup(b.Stop)
	r, _ := b.Register("r")

	// Privileged occupancy fills the store to its budget: Put is unbounded,
	// and the store is now past its high watermark.
	filler := b.store.Put(make([]byte, budget), 1)
	if !b.store.Pressured() {
		t.Fatal("store not pressured after privileged fill")
	}

	before := b.Metrics()
	h := &message.Header{ID: 1, Type: message.TypeRollout, Src: "peer", Dst: []string{"r"}}
	if err := b.InjectRemote(h, packBody(t, &message.DummyPayload{Data: make([]byte, 1024)})); err != nil {
		t.Fatalf("InjectRemote: %v", err)
	}
	after := b.Metrics()
	if got := after.Drops.StoreBudget - before.Drops.StoreBudget; got != 1 {
		t.Fatalf("StoreBudget drops = %d, want 1 (one declined receiver)", got)
	}
	if after.BodiesInjected != before.BodiesInjected {
		t.Fatal("refused injection still counted as injected")
	}

	// A privileged injection gets through even under pressure.
	wh := &message.Header{ID: 2, Type: message.TypeWeights, Src: "peer", Dst: []string{"r"}}
	if err := b.InjectRemote(wh, packBody(t, &message.WeightsPayload{Version: 9, Data: []float32{1}})); err != nil {
		t.Fatalf("InjectRemote weights: %v", err)
	}
	got, err := r.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Header.Type != message.TypeWeights || got.Body.(*message.WeightsPayload).Version != 9 {
		t.Fatalf("received %v body %+v, want weights v9", got.Header.Type, got.Body)
	}
	if err := b.store.Release(filler); err != nil {
		t.Fatalf("Release filler: %v", err)
	}
	if err := b.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBackpressureShed measures the overload path of DESIGN.md §5f:
// a bounded broker whose receiver never drains. After a short warmup the
// destination queue sits at ShedQueueDepth and the store hovers at its high
// watermark, so every droppable send exercises the shed machinery — a
// drop-oldest PopIf that releases the evicted reference, or a store-budget
// refusal at admission — rather than the regular admit path. Its allocs/op
// is the per-shed allocation cost.
func BenchmarkBackpressureShed(b *testing.B) {
	br := New(Config{MachineID: 0, StoreBudget: 64 << 10, ShedQueueDepth: 8})
	defer br.Stop()
	s, err := br.Register("s")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := br.Register("r"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 8<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := message.New(message.TypeDummy, "s", []string{"r"},
			&message.DummyPayload{Data: payload})
		if err := s.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}
