package core

import (
	"fmt"
	"slices"
	"testing"

	"xingtian/internal/broker"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// recordingAgent records every weights install in order. It has no
// ApplyWeightsDelta: the shape of an agent wrapper that does not forward
// core.DeltaAgent.
type recordingAgent struct{ calls []string }

func (a *recordingAgent) Rollout(int) (*rollout.Batch, error) { return &rollout.Batch{}, nil }
func (a *recordingAgent) WeightsVersion() int64               { return 0 }
func (a *recordingAgent) OnPolicy() bool                      { return false }
func (a *recordingAgent) EpisodeStats() (int64, float64)      { return 0, 0 }
func (a *recordingAgent) SetWeights(w *message.WeightsPayload) error {
	a.calls = append(a.calls, fmt.Sprintf("set v%d", w.Version))
	return nil
}

// recordingDeltaAgent is recordingAgent with deltas.
type recordingDeltaAgent struct{ recordingAgent }

func (a *recordingDeltaAgent) ApplyWeightsDelta(d *message.WeightsDeltaPayload) error {
	a.calls = append(a.calls, fmt.Sprintf("delta v%d->v%d", d.BaseVersion, d.Version))
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

// drainOnce queues msgs for an out-of-credit explorer over agent, runs one
// blocking drain and returns the explorer after stopping its broker.
func drainOnce(t *testing.T, agent Agent, msgs ...*message.Message) (*Explorer, broker.MetricsSnapshot) {
	t.Helper()
	br := broker.New(broker.Config{})
	port, err := br.Register(ExplorerName(0))
	if err != nil {
		t.Fatal(err)
	}
	e := NewExplorer(0, agent, port, 1)
	e.fragmentsSinceWeights = e.maxInflight
	queueFor(t, br, msgs...)
	if !e.drainReceived(true) {
		t.Fatal("drain reported shutdown")
	}
	if e.fragmentsSinceWeights != 0 {
		t.Fatalf("credit not reset: %d fragments since weights", e.fragmentsSinceWeights)
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
// v1→v2, stats, dense v3, delta v3→v4] installs v3 and applies v3→v4 and
// nothing else, releases v1 and v1→v2 unread, opens the stats message in
// its place, and resets the credit.
func TestExplorerInstallsNewestSnapshot(t *testing.T) {
	stats := toExplorer(message.TypeStats, &message.StatsPayload{Node: "n"})
	backlog := func() []*message.Message {
		return []*message.Message{dense(1), delta(1, 2), stats, dense(3), delta(3, 4)}
	}
	agent := &recordingDeltaAgent{}
	_, m := drainOnce(t, agent, backlog()...)
	if want := []string{"set v3", "delta v3->v4"}; !slices.Equal(agent.calls, want) {
		t.Fatalf("agent saw %q, want %q", agent.calls, want)
	}
	if m.Superseded != 2 || m.Receives != 3 || m.Drops.Total() != 0 {
		t.Fatalf("superseded=%d receives=%d drops=%d, want 2, 3, 0",
			m.Superseded, m.Receives, m.Drops.Total())
	}

	// A wrapper that does not forward DeltaAgent sees the same installs;
	// the delta it cannot apply is NACKed to its source.
	plain := &recordingAgent{}
	e, _ := drainOnce(t, plain, backlog()...)
	if want := []string{"set v3"}; !slices.Equal(plain.calls, want) {
		t.Fatalf("wrapper saw %q, want %q", plain.calls, want)
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
