package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/faultinject"
	"xingtian/internal/message"
)

// verdictRecorder collects membership verdicts for assertion.
type verdictRecorder struct {
	mu       sync.Mutex
	verdicts []int // machine per verdict, in arrival order
}

func (r *verdictRecorder) record(machine, epoch int) {
	r.mu.Lock()
	r.verdicts = append(r.verdicts, machine)
	r.mu.Unlock()
}

func (r *verdictRecorder) snapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.verdicts...)
}

// TestMembershipVerdictOnKill: a killed machine stops renewing its lease and
// its link to the coordinator drops, so the detector condemns it — exactly
// once, and only it.
func TestMembershipVerdictOnKill(t *testing.T) {
	g, err := NewGrid(3, GridOptions{})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()

	rec := &verdictRecorder{}
	if err := g.StartMembership(0, 5*time.Millisecond, 3, rec.record); err != nil {
		t.Fatalf("StartMembership: %v", err)
	}
	// A second arm must be rejected — the plane is per-grid singleton state.
	if err := g.StartMembership(0, 5*time.Millisecond, 3, rec.record); err == nil {
		t.Fatal("second StartMembership should fail")
	}

	waitFor(t, 5*time.Second, "lease renewals to flow", func() bool {
		renewals, _ := g.MembershipStats()
		return renewals >= 3
	})

	g.Kill(1)
	g.mu.Lock()
	killed := g.killed[1]
	g.mu.Unlock()
	if !killed {
		t.Fatal("machine 1 not marked killed after Kill")
	}
	waitFor(t, 5*time.Second, "death verdict for machine 1", func() bool {
		_, verdicts := g.MembershipStats()
		return verdicts >= 1
	})

	// The verdict fires once, names the killed machine, and never spreads
	// to the survivors: hold the plane open for several more windows.
	time.Sleep(100 * time.Millisecond)
	if got := rec.snapshot(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("verdicts = %v, want exactly [1]", got)
	}
	if _, verdicts := g.MembershipStats(); verdicts != 1 {
		t.Fatalf("MembershipStats verdicts = %d, want 1", verdicts)
	}

	// Survivor traffic still flows after the kill and the verdict.
	a, err := g.Register(0, "alive-0")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	b, err := g.Register(2, "alive-2")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := a.Send(message.New(message.TypeDummy, "alive-0", []string{"alive-2"},
		&message.DummyPayload{Data: []byte("post-kill")})); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m, err := b.Recv(); err != nil || string(m.Body.(*message.DummyPayload).Data) != "post-kill" {
		t.Fatalf("Recv = %v, %v", m, err)
	}
}

// TestMembershipAsymmetricPartition: renewals from machine 1 to the
// coordinator are blackholed while the link itself stays connected (write
// succeeds, frame vanishes). The link-state corroboration cannot fire, so
// the verdict comes from the extended pure-silence window instead.
func TestMembershipAsymmetricPartition(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 21})
	g, err := NewGrid(2, GridOptions{ConnWrapperFor: inj.WrapConnFor})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()

	rec := &verdictRecorder{}
	if err := g.StartMembership(0, 5*time.Millisecond, 3, rec.record); err != nil {
		t.Fatalf("StartMembership: %v", err)
	}
	waitFor(t, 5*time.Second, "lease renewals to flow", func() bool {
		renewals, _ := g.MembershipStats()
		return renewals >= 3
	})

	// Drop every frame machine 1 writes toward the coordinator's address
	// from now on; the reverse direction is untouched.
	part := inj.NewPartition(1, g.Node(0).Addr(), 0)

	waitFor(t, 10*time.Second, "pure-silence verdict for machine 1", func() bool {
		_, verdicts := g.MembershipStats()
		return verdicts >= 1
	})
	if got := rec.snapshot(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("verdicts = %v, want exactly [1]", got)
	}
	if part.Drops() == 0 {
		t.Fatal("partition blackholed nothing — the verdict did not come from lease silence")
	}
	part.Heal()
}

// TestCorruptFrameCountedAndRecovered: a frame corrupted on the wire fails
// the CRC on read, is counted in CorruptFrames, tears the connection into
// the redial path — and traffic keeps flowing afterwards.
func TestCorruptFrameCountedAndRecovered(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 5, CorruptEveryNWrites: 50})
	g, err := NewGrid(2, GridOptions{ConnWrapper: inj.WrapConn})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()

	src, err := g.Register(0, "src")
	if err != nil {
		t.Fatalf("Register src: %v", err)
	}
	sink, err := g.Register(1, "sink")
	if err != nil {
		t.Fatalf("Register sink: %v", err)
	}
	done := make(chan struct{})
	var delivered atomic.Int64
	go func() {
		defer close(done)
		for {
			if _, err := sink.Recv(); err != nil {
				return
			}
			delivered.Add(1)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := src.Send(message.New(message.TypeDummy, "src", []string{"sink"},
			&message.DummyPayload{Data: make([]byte, 256)})); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if g.Node(1).Metrics().CorruptFrames > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m := g.Node(1).Metrics()
	if m.CorruptFrames == 0 {
		t.Fatal("no corrupt frame was ever detected")
	}

	// The torn conn redials and the stream recovers: further sends land.
	before := delivered.Load()
	waitFor(t, 10*time.Second, "post-corruption delivery", func() bool {
		if err := src.Send(message.New(message.TypeDummy, "src", []string{"sink"},
			&message.DummyPayload{Data: make([]byte, 256)})); err != nil {
			t.Fatalf("Send after corruption: %v", err)
		}
		return delivered.Load() > before
	})

	g.Stop()
	<-done
}
