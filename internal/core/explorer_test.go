package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xingtian/internal/broker"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// recordingAgent records every weights install in order.
type recordingAgent struct{ calls []string }

func (a *recordingAgent) Rollout(int) (*rollout.Batch, error) { return &rollout.Batch{}, nil }
func (a *recordingAgent) WeightsVersion() int64               { return 0 }
func (a *recordingAgent) OnPolicy() bool                      { return false }
func (a *recordingAgent) EpisodeStats() (int64, float64)      { return 0, 0 }
func (a *recordingAgent) SetWeights(w *message.WeightsPayload) error {
	a.calls = append(a.calls, fmt.Sprintf("set v%d", w.Version))
	return nil
}

// queueFor delivers each message to explorer 0's port in order, as a remote
// broker would; a nil body delivers bytes no decoder accepts.
func queueFor(t *testing.T, br *broker.Broker, msgs ...*message.Message) {
	t.Helper()
	for _, m := range msgs {
		framed := []byte{0x00, 0xff, 0xff}
		if m.Body != nil {
			raw, err := serialize.Marshal(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			framed, _ = serialize.Compressor{}.Pack(raw)
		}
		if err := br.InjectRemote(m.Header, framed); err != nil {
			t.Fatal(err)
		}
	}
}

func toExplorer(t message.Type, body any) *message.Message {
	return message.New(t, BroadcastName, []string{ExplorerName(0)}, body)
}

func dense(v int64) *message.Message {
	return toExplorer(message.TypeWeights, &message.WeightsPayload{Version: v, Data: []float32{float32(v)}})
}

func delta(base, v int64) *message.Message {
	return toExplorer(message.TypeWeightsDelta, &message.WeightsDeltaPayload{
		Version: v, BaseVersion: base, NumParams: 1, Values: []float32{1}})
}

// drainOnce queues msgs for an explorer over agent that awaits a newer
// version, runs one blocking drain and returns the explorer after stopping
// its broker.
func drainOnce(t *testing.T, agent Agent, msgs ...*message.Message) (*Explorer, broker.MetricsSnapshot) {
	t.Helper()
	br := broker.New(broker.Config{})
	port, err := br.Register(ExplorerName(0))
	if err != nil {
		t.Fatal(err)
	}
	e := NewExplorer(0, agent, port, 1)
	e.awaitingVersion = true
	queueFor(t, br, msgs...)
	if !e.drainReceived() {
		t.Fatal("drain reported shutdown")
	}
	if n := port.Pending(); n != 0 {
		t.Fatalf("%d headers left queued", n)
	}
	br.Stop()
	m := br.Metrics()
	if m.LeakedAtStop != 0 {
		t.Fatalf("LeakedAtStop = %d, want 0", m.LeakedAtStop)
	}
	return e, m
}

// TestExplorerInstallsNewestSnapshot: one drain over [dense v1, delta
// v1→v2, stats, dense v3, delta v3→v4] installs v3, then v4 rebuilt on the
// explorer's mirror, and nothing else; it releases v1 and v1→v2 unread,
// opens the stats message in its place. A delta on
// a base the mirror does not hold is NACKed to its source and installs
// nothing.
func TestExplorerInstallsNewestSnapshot(t *testing.T) {
	stats := toExplorer(message.TypeStats, &message.StatsPayload{Node: "n"})
	agent := &recordingAgent{}
	e, m := drainOnce(t, agent, dense(1), delta(1, 2), stats, dense(3), delta(3, 4))
	if want := []string{"set v3", "set v4"}; !slices.Equal(agent.calls, want) {
		t.Fatalf("agent saw %q, want %q", agent.calls, want)
	}
	if m.Superseded != 2 || m.Receives != 3 || m.Drops.Total() != 0 {
		t.Fatalf("superseded=%d receives=%d drops=%d, want 2, 3, 0",
			m.Superseded, m.Receives, m.Drops.Total())
	}
	if e.mirror.version != 4 || !slices.Equal(e.mirror.flat, []float32{4}) {
		t.Fatalf("mirror at v%d %v, want v4 [4]", e.mirror.version, e.mirror.flat)
	}
	if nack, err := e.sendBuf.TryNext(); err == nil {
		t.Fatalf("staged %+v, want no NACK", nack.Body)
	}

	agent = &recordingAgent{}
	e, _ = drainOnce(t, agent, dense(1), delta(2, 3))
	if want := []string{"set v1"}; !slices.Equal(agent.calls, want) {
		t.Fatalf("agent saw %q, want %q", agent.calls, want)
	}
	if e.mirror.version != 1 || !slices.Equal(e.mirror.flat, []float32{1}) {
		t.Fatalf("a refused delta moved the mirror to v%d %v", e.mirror.version, e.mirror.flat)
	}
	nack, err := e.sendBuf.TryNext()
	if err != nil {
		t.Fatalf("no NACK staged: %v", err)
	}
	if c, ok := nack.Body.(*message.ControlPayload); !ok || c.Kind != message.ControlWeightsResync || nack.Header.Dst[0] != BroadcastName {
		t.Fatalf("staged %+v to %v, want a resync NACK to %s", nack.Body, nack.Header.Dst, BroadcastName)
	}
}

// TestExplorerSkipsUndecodableBody: a body that fails to decode is skipped,
// not fatal; the snapshot behind it is installed.
func TestExplorerSkipsUndecodableBody(t *testing.T) {
	agent := &recordingAgent{}
	_, m := drainOnce(t, agent, toExplorer(message.TypeControl, nil), dense(1))
	if want := []string{"set v1"}; !slices.Equal(agent.calls, want) {
		t.Fatalf("agent saw %q, want %q", agent.calls, want)
	}
	if m.Drops.RecvError != 1 {
		t.Fatalf("Drops.RecvError = %d, want 1", m.Drops.RecvError)
	}
}

// installAgent keeps a copy of the last vector installed; while fail is set,
// installs return it instead.
type installAgent struct {
	recordingAgent
	fail      error
	installed []float32
}

func (a *installAgent) SetWeights(w *message.WeightsPayload) error {
	if a.fail != nil {
		return a.fail
	}
	a.installed = append(a.installed[:0], w.Data...)
	return nil
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestWeightMirrorInvalidatedByFailedInstall: the explorer advances its
// mirror in place before the install, so an install that fails leaves the
// mirror ahead of the agent. It must then refuse every delta — on the old
// base and on the base it now holds — until a dense snapshot re-seeds it,
// after which chaining resumes.
func TestWeightMirrorInvalidatedByFailedInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := make([]float32, 500)
	for i := range w1 {
		w1[i] = float32(rng.NormFloat64())
	}
	w2, w3 := append([]float32(nil), w1...), make([]float32, len(w1))
	for i := 0; i < len(w2); i += 17 {
		w2[i] += 0.05
	}
	copy(w3, w2)
	for i := 3; i < len(w3); i += 13 {
		w3[i] -= 0.05
	}
	// The canonical chain: r2 = w1 + d12, r3 = r2 + d23.
	r2, r3 := make([]float32, len(w1)), make([]float32, len(w1))
	d12, err := serialize.EncodeDeltaInto(w1, w2, r2, 1, 2, serialize.QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	d23, err := serialize.EncodeDeltaInto(r2, w3, r3, 2, 3, serialize.QuantInt8)
	if err != nil {
		t.Fatal(err)
	}

	failed := errors.New("install failed")
	agent := &installAgent{fail: failed}
	e := NewExplorer(0, agent, nil, 1)
	e.mirror.setDense(&message.WeightsPayload{Version: 1, Data: w1})
	if err := e.installDelta(d12); !errors.Is(err, failed) {
		t.Fatalf("installDelta with a failing install = %v, want the install error", err)
	}
	if e.mirror.version != mirrorInvalid {
		t.Fatalf("mirror at version %d after a failed install, want invalidated", e.mirror.version)
	}
	agent.fail = nil
	for _, d := range []*message.WeightsDeltaPayload{d12, d23} {
		if err := e.installDelta(d); err == nil {
			t.Fatalf("invalidated mirror accepted a delta on base %d", d.BaseVersion)
		}
	}
	if agent.installed != nil {
		t.Fatal("a refused delta reached the agent")
	}

	e.mirror.setDense(&message.WeightsPayload{Version: 2, Data: r2})
	if err := e.installDelta(d23); err != nil {
		t.Fatalf("re-seeded mirror refused the next chain delta: %v", err)
	}
	if e.mirror.version != 3 || !sameBits(e.mirror.flat, r3) || !sameBits(agent.installed, r3) {
		t.Fatalf("re-seeded mirror at version %d does not hold and install the canonical reconstruction", e.mirror.version)
	}
}

// TestWeightMirrorApplyDeltaAllocatesNothing: chaining a delta onto the
// explorer's mirror and installing the result allocates nothing — the
// mirror advances its own vector and the install reuses one payload.
func TestWeightMirrorApplyDeltaAllocatesNothing(t *testing.T) {
	base := make([]float32, 1000)
	cur := append([]float32(nil), base...)
	for i := 0; i < len(cur); i += 9 {
		cur[i] = 0.25
	}
	d, err := serialize.EncodeDelta(base, cur, 4, 5, serialize.QuantInt8)
	if err != nil || d.Entries() == 0 {
		t.Fatalf("EncodeDelta: %d entries, %v", d.Entries(), err)
	}
	agent := &installAgent{}
	e := NewExplorer(0, agent, nil, 1)
	e.mirror.setDense(&message.WeightsPayload{Version: 4, Data: base})
	allocs := testing.AllocsPerRun(20, func() {
		e.mirror.version = d.BaseVersion
		if err := e.installDelta(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("installDelta allocates %.0f times, want 0", allocs)
	}
	if !sameBits(agent.installed, e.mirror.flat) {
		t.Fatal("the agent does not hold the mirror's vector")
	}
}
