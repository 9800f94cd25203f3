package broker

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/objectstore"
	"xingtian/internal/queue"
	"xingtian/internal/serialize"
)

// corruptFrame is a framed body with an unknown frame flag: Unpack fails.
var corruptFrame = []byte{0x7f, 0x01, 0x02}

// badPayloadFrame unpacks fine (raw frame) but carries an unknown payload
// tag: Unmarshal fails.
var badPayloadFrame = []byte{0x00, 0xff, 0xff}

func waitDrained(t *testing.T, b *Broker) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for b.Store().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("store not drained: %v", b.Store().VerifyDrained())
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.VerifyDrained(); err != nil {
		t.Fatalf("VerifyDrained: %v", err)
	}
}

// TestCorruptBodyReleasesReference is the materialize-leak regression test:
// a body that fails to unpack or unmarshal must still release its
// object-store reference.
func TestCorruptBodyReleasesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"unpack-error", corruptFrame},
		{"unmarshal-error", badPayloadFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := singleMachine(t)
			r, err := b.Register("r")
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			h := &message.Header{ID: 1, Type: message.TypeDummy, Src: "peer",
				Dst: []string{"r"}, CreatedNanos: time.Now().UnixNano()}
			if err := b.InjectRemote(h, tc.body); err != nil {
				t.Fatalf("InjectRemote: %v", err)
			}
			if _, err := r.Recv(); err == nil {
				t.Fatal("Recv of corrupt body did not error")
			}
			if n := b.Store().Len(); n != 0 {
				t.Fatalf("corrupt body leaked: store holds %d object(s)", n)
			}
			m := b.Metrics()
			if m.Drops.RecvError != 1 {
				t.Fatalf("Drops.RecvError = %d, want 1", m.Drops.RecvError)
			}
			if m.ReleaseErrors != 0 {
				t.Fatalf("ReleaseErrors = %d, want 0", m.ReleaseErrors)
			}
		})
	}
}

// TestBroadcastHeadersNotAliased: every receiver of a broadcast must get a
// private Header copy, Dst narrowed to itself. Receivers mutate their
// headers concurrently; run under -race to catch aliasing.
func TestBroadcastHeadersNotAliased(t *testing.T) {
	b := singleMachine(t)
	sender, err := b.Register("learner")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 4
	ports := make([]*Port, n)
	dst := make([]string, n)
	for i := range ports {
		name := fmt.Sprintf("explorer-%d", i)
		dst[i] = name
		p, err := b.Register(name)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		ports[i] = p
	}
	w := &message.WeightsPayload{Version: 5, Data: []float32{1, 2}}
	if err := sender.Send(message.New(message.TypeWeights, "learner", dst, w)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	var wg sync.WaitGroup
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p *Port) {
			defer wg.Done()
			m, err := p.Recv()
			if err != nil {
				t.Errorf("%s Recv: %v", p.Name(), err)
				return
			}
			// Concurrent writes: racy if headers were shared.
			m.Header.Round = int32(i)
			m.Header.WeightsVersion = int64(i)
			if len(m.Header.Dst) != 1 || m.Header.Dst[0] != p.Name() {
				t.Errorf("%s got Dst = %v, want [%s]", p.Name(), m.Header.Dst, p.Name())
			}
		}(i, p)
	}
	wg.Wait()
	waitDrained(t, b)
}

// TestInjectRemoteHeadersNotAliased covers the receiving half: remote
// injections fan out to per-receiver header copies too.
func TestInjectRemoteHeadersNotAliased(t *testing.T) {
	b := singleMachine(t)
	const n = 3
	ports := make([]*Port, n)
	dst := make([]string, n)
	for i := range ports {
		name := fmt.Sprintf("recv-%d", i)
		dst[i] = name
		p, err := b.Register(name)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		ports[i] = p
	}
	raw, err := serialize.Marshal(&message.DummyPayload{Data: []byte("remote body")})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	framed, _ := serialize.Compressor{}.Pack(raw)
	h := &message.Header{ID: 9, Type: message.TypeDummy, Src: "peer", Dst: dst,
		CreatedNanos: time.Now().UnixNano()}
	if err := b.InjectRemote(h, framed); err != nil {
		t.Fatalf("InjectRemote: %v", err)
	}
	var wg sync.WaitGroup
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p *Port) {
			defer wg.Done()
			m, err := p.Recv()
			if err != nil {
				t.Errorf("%s Recv: %v", p.Name(), err)
				return
			}
			m.Header.Round = int32(i) // racy if shared
			if len(m.Header.Dst) != 1 || m.Header.Dst[0] != p.Name() {
				t.Errorf("%s got Dst = %v", p.Name(), m.Header.Dst)
			}
		}(i, p)
	}
	wg.Wait()
	waitDrained(t, b)
}

// TestChannelDrainsAfterMixedTraffic is the acceptance drain test: a
// multi-receiver broadcast run that includes a corrupt-body receive and an
// unregistered destination must leave the store at zero live objects with
// every drop accounted for.
func TestChannelDrainsAfterMixedTraffic(t *testing.T) {
	b := singleMachine(t)
	sender, err := b.Register("learner")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 4
	ports := make([]*Port, n)
	names := make([]string, n)
	for i := range ports {
		names[i] = fmt.Sprintf("recv-%d", i)
		p, err := b.Register(names[i])
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		ports[i] = p
	}

	// Broadcast to all receivers plus an unregistered destination.
	dst := append(append([]string(nil), names...), "ghost")
	w := &message.WeightsPayload{Version: 1, Data: make([]float32, 256)}
	if err := sender.Send(message.New(message.TypeWeights, "learner", dst, w)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	var wg sync.WaitGroup
	for _, p := range ports {
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			if _, err := p.Recv(); err != nil {
				t.Errorf("%s Recv: %v", p.Name(), err)
			}
		}(p)
	}
	wg.Wait()

	// One corrupt body delivered to the first receiver.
	hc := &message.Header{ID: 2, Type: message.TypeDummy, Src: "peer",
		Dst: []string{names[0]}, CreatedNanos: time.Now().UnixNano()}
	if err := b.InjectRemote(hc, corruptFrame); err != nil {
		t.Fatalf("InjectRemote: %v", err)
	}
	if _, err := ports[0].Recv(); err == nil {
		t.Fatal("corrupt body Recv did not error")
	}

	waitDrained(t, b)
	if leaks := b.Leaked(0); len(leaks) != 0 {
		t.Fatalf("leak detector reports %d record(s): %+v", len(leaks), leaks)
	}
	m := b.Metrics()
	if m.Drops.UnknownDestination != 1 {
		t.Fatalf("Drops.UnknownDestination = %d, want 1 (ghost)", m.Drops.UnknownDestination)
	}
	if m.Drops.RecvError != 1 {
		t.Fatalf("Drops.RecvError = %d, want 1 (corrupt body)", m.Drops.RecvError)
	}
	if m.ReleaseErrors != 0 {
		t.Fatalf("ReleaseErrors = %d, want 0", m.ReleaseErrors)
	}
	if m.Receives != n {
		t.Fatalf("Receives = %d, want %d", m.Receives, n)
	}
}

// TestStopReclaimsUndelivered: headers sitting in ID queues at shutdown
// must have their references reclaimed, leaving zero leaked objects.
func TestStopReclaimsUndelivered(t *testing.T) {
	b := New(Config{MachineID: 0})
	s, err := b.Register("s")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := b.Register("idle"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Send(dummyMsg("s", []string{"idle"}, make([]byte, 128))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Let the router move the headers into the idle client's queue.
	deadline := time.Now().Add(time.Second)
	for b.Metrics().HeadersRouted < 3 {
		if time.Now().After(deadline) {
			t.Fatal("router never dispatched the messages")
		}
		time.Sleep(time.Millisecond)
	}
	b.Stop()
	m := b.Metrics()
	if m.LeakedAtStop != 0 {
		t.Fatalf("LeakedAtStop = %d, want 0; %v", m.LeakedAtStop, b.VerifyDrained())
	}
	if m.Drops.ShutdownDrained != 3 {
		t.Fatalf("Drops.ShutdownDrained = %d, want 3", m.Drops.ShutdownDrained)
	}
	if err := b.VerifyDrained(); err != nil {
		t.Fatalf("VerifyDrained after Stop: %v", err)
	}
}

// TestStopDuringMaterializeIsNotALeak pins the stop-time accounting: a
// receiver that popped its header before Stop and is still decoding holds
// one live object, which is reported while it is held and gone once the
// receiver releases it. (Stop used to freeze the count it saw, so sessions
// that stop the transport before joining their receivers reported a leak
// next to an empty store.)
func TestStopDuringMaterializeIsNotALeak(t *testing.T) {
	b := New(Config{MachineID: 0})
	parked, resume := make(chan struct{}), make(chan struct{})
	b.materializeHook = func() {
		close(parked)
		<-resume
	}
	s, err := b.Register("s")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	r, err := b.Register("r")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := s.Send(dummyMsg("s", []string{"r"}, make([]byte, 128))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := r.Recv()
		recvErr <- err
	}()
	<-parked

	leaked := func() int64 {
		return ClusterHealth{Brokers: []MetricsSnapshot{b.Metrics()}}.TotalLeaked()
	}
	if n := leaked(); n != 0 {
		t.Fatalf("TotalLeaked = %d on a running broker, want 0", n)
	}
	b.Stop()
	if n := leaked(); n != 1 {
		t.Fatalf("TotalLeaked = %d with a receiver parked inside materialize, want 1", n)
	}
	close(resume)
	if err := <-recvErr; err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if n := leaked(); n != 0 {
		t.Fatalf("TotalLeaked = %d after the receiver released, want 0; %v", n, b.VerifyDrained())
	}
}

// TestUnregisterReclaimsUndelivered: Unregister of a client with queued
// messages must not leak their bodies.
func TestUnregisterReclaimsUndelivered(t *testing.T) {
	b := singleMachine(t)
	s, _ := b.Register("s")
	if _, err := b.Register("leaver"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := s.Send(dummyMsg("s", []string{"leaver"}, make([]byte, 64))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for b.Metrics().HeadersRouted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("router never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	b.Unregister("leaver")
	waitDrained(t, b)
}

// TestMetricsSnapshotCounters sanity-checks the counter set over a small
// local exchange.
func TestMetricsSnapshotCounters(t *testing.T) {
	b := singleMachine(t)
	s, _ := b.Register("s")
	r, _ := b.Register("r")
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := s.Send(dummyMsg("s", []string{"r"}, make([]byte, 256))); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, err := r.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	m := b.Metrics()
	if m.Sends != rounds || m.Receives != rounds || m.HeadersRouted != rounds {
		t.Fatalf("sends/recvs/routed = %d/%d/%d, want %d each", m.Sends, m.Receives, m.HeadersRouted, rounds)
	}
	if m.BytesIn < rounds*256 {
		t.Fatalf("BytesIn = %d, want >= %d", m.BytesIn, rounds*256)
	}
	if m.Delivery.Count != rounds || m.Delivery.Mean <= 0 {
		t.Fatalf("Delivery = %+v, want %d samples with positive mean", m.Delivery, rounds)
	}
	if m.Drops.Total() != 0 {
		t.Fatalf("Drops.Total = %d, want 0", m.Drops.Total())
	}
	if got := m.IDQueueDepths["r"]; got != 0 {
		t.Fatalf("IDQueueDepths[r] = %d, want 0", got)
	}
	for _, render := range []string{m.String(), m.Summary()} {
		if !strings.Contains(render, "m0") {
			t.Fatalf("formatter output missing machine tag: %q", render)
		}
	}
}

// TestClusterHealthCrossMachine: cross-machine traffic shows up in the
// forwarding broker's forwarded counters and the receiving broker's
// injected counters, and both stores drain.
func TestClusterHealthCrossMachine(t *testing.T) {
	c := fastCluster(t)
	if _, err := c.AddBroker(0, serialize.Compressor{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBroker(1, serialize.Compressor{}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Register(0, "src")
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Register(1, "dst")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(dummyMsg("src", []string{"dst"}, make([]byte, 2048))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := r.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		h := c.Health()
		if len(h.Brokers) == 2 &&
			h.Brokers[0].BodiesForwarded == 1 && h.Brokers[1].BodiesInjected == 1 &&
			h.Brokers[0].Store.Objects == 0 && h.Brokers[1].Store.Objects == 0 {
			if h.Brokers[0].BytesForwarded < 2048 || h.Brokers[1].BytesInjected < 2048 {
				t.Fatalf("forwarded/injected bytes = %d/%d, want >= 2048",
					h.Brokers[0].BytesForwarded, h.Brokers[1].BytesInjected)
			}
			if !strings.Contains(h.Summary(), "m1") {
				t.Fatalf("cluster summary missing machine 1: %q", h.Summary())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-machine counters never settled: %s", h.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDropsUnknownDestinationMetric covers the router's unknown-destination
// release path with accounting.
func TestDropsUnknownDestinationMetric(t *testing.T) {
	b := singleMachine(t)
	s, _ := b.Register("s")
	if err := s.Send(dummyMsg("s", []string{"ghost"}, make([]byte, 64))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for b.Metrics().Drops.UnknownDestination != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Drops.UnknownDestination = %d, want 1", b.Metrics().Drops.UnknownDestination)
		}
		time.Sleep(time.Millisecond)
	}
	waitDrained(t, b)
}

// TestRecvStoreMissSurfacesNotFound: a header pointing at a missing body
// reports the store miss instead of double-releasing.
func TestRecvStoreMissSurfacesNotFound(t *testing.T) {
	b := singleMachine(t)
	p, _ := b.Register("r")
	h := &message.Header{ID: 3, Type: message.TypeDummy, Src: "x",
		Dst: []string{"r"}, ObjectID: objectstore.ID(999)}
	if err := p.idQueue.Put(h); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := p.Recv(); !errors.Is(err, objectstore.ErrNotFound) {
		t.Fatalf("Recv = %v, want ErrNotFound", err)
	}
	if got := b.Metrics().Drops.StoreMiss; got != 1 {
		t.Fatalf("Drops.StoreMiss = %d, want 1", got)
	}
	if got := b.Metrics().ReleaseErrors; got != 0 {
		t.Fatalf("ReleaseErrors = %d, want 0 (no release attempted on miss)", got)
	}
}

// TestDiscardReleasesAsSuperseded: Discard releases a popped header's body
// unread and counts it as Superseded, not as a receive or a drop; Open
// materializes the one the receiver keeps.
func TestDiscardReleasesAsSuperseded(t *testing.T) {
	b := singleMachine(t)
	r, _ := b.Register("r")
	for v := int64(1); v <= 3; v++ {
		h := &message.Header{ID: uint64(v), Type: message.TypeWeights, Src: "x", Dst: []string{"r"}}
		if err := b.InjectRemote(h, packBody(t, &message.WeightsPayload{Version: v, Data: []float32{1}})); err != nil {
			t.Fatalf("InjectRemote: %v", err)
		}
	}
	var hs []*message.Header
	for {
		h, err := r.NextHeader(false)
		if errors.Is(err, queue.ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("NextHeader: %v", err)
		}
		hs = append(hs, h)
	}
	if len(hs) != 3 {
		t.Fatalf("popped %d headers, want 3", len(hs))
	}
	r.Discard(hs[0])
	r.Discard(hs[1])
	m, err := r.Open(hs[2])
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v := m.Body.(*message.WeightsPayload).Version; v != 3 {
		t.Fatalf("opened version %d, want 3", v)
	}
	snap := b.Metrics()
	if snap.Superseded != 2 || snap.Receives != 1 || snap.Drops.Total() != 0 {
		t.Fatalf("superseded=%d receives=%d drops=%d, want 2, 1, 0",
			snap.Superseded, snap.Receives, snap.Drops.Total())
	}
	waitDrained(t, b)
}
