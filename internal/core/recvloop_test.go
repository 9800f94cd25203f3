package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// undecodable is a raw frame whose payload tag no decoder knows: it unpacks,
// then fails to unmarshal.
var undecodable = []byte{0x00, 0xff, 0xff}

// inject delivers m to its local destinations as a remote broker would,
// ahead of anything sent later. A nil body delivers undecodable instead.
func inject(t *testing.T, br *broker.Broker, m *message.Message) {
	t.Helper()
	framed := undecodable
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

// checkSkipped fails unless exactly one body failed to decode and nothing
// leaked once the broker stopped.
func checkSkipped(t *testing.T, br *broker.Broker) {
	t.Helper()
	m := br.Metrics()
	if m.Drops.RecvError != 1 {
		t.Fatalf("Drops.RecvError = %d, want 1", m.Drops.RecvError)
	}
	if m.LeakedAtStop != 0 {
		t.Fatalf("LeakedAtStop = %d, want 0", m.LeakedAtStop)
	}
}

func testRollout() *message.RolloutBody {
	return &rollout.Batch{Steps: []rollout.Step{{Reward: 1}}}
}

// countingAlg is an Algorithm that only counts the rollouts it ingests.
type countingAlg struct{ prepared atomic.Int64 }

func (a *countingAlg) Name() string               { return "counting" }
func (a *countingAlg) PrepareData(*rollout.Batch) { a.prepared.Add(1) }
func (a *countingAlg) TryTrain() (core.TrainResult, bool, error) {
	return core.TrainResult{}, false, nil
}
func (a *countingAlg) Weights() *message.WeightsPayload      { return &message.WeightsPayload{} }
func (a *countingAlg) RestoreWeights(int64, []float32) error { return nil }

// TestLearnLoopSkipsUndecodableBody: a learn replica's receiver skips a body
// that fails to decode and hands the rollout behind it to the algorithm.
func TestLearnLoopSkipsUndecodableBody(t *testing.T) {
	br := broker.New(broker.Config{})
	port, err := br.Register(core.LearnName(0))
	if err != nil {
		t.Fatal(err)
	}
	alg := &countingAlg{}
	l := core.NewLearnFragment(0, alg, port, 1<<20, 0)
	l.Start()
	inject(t, br, message.New(message.TypeRollout, core.ExplorerName(0), []string{core.LearnName(0)}, nil))
	inject(t, br, message.New(message.TypeRollout, core.ExplorerName(0), []string{core.LearnName(0)}, testRollout()))
	waitUntil(t, 5*time.Second, "the rollout to reach the algorithm", func() bool {
		return alg.prepared.Load() == 1
	})
	l.Stop()
	br.Stop()
	l.Join()
	checkSkipped(t, br)
}

// TestBroadcastLoopSkipsUndecodableBody: the broadcaster skips a body that
// fails to decode and commits the push behind it.
func TestBroadcastLoopSkipsUndecodableBody(t *testing.T) {
	const params = 8
	rig := newAggRig(t, 1, filled(params, 0))
	inject(t, rig.br, message.New(message.TypeControl, "supervisor", []string{core.BroadcastName}, nil))
	rig.send(t, 0, filled(params, 4), 0)
	waitUntil(t, 5*time.Second, "the push's echo", func() bool { return rig.learn[0].Pending() == 1 })
	checkEcho(t, "push", rig.echoPayload(t), 1, 4)
	rig.br.Stop()
	rig.retire(t)
	checkSkipped(t, rig.br)
}
