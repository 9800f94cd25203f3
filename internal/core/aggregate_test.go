package core_test

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/message"
)

// aggRig runs a broadcast fragment alone on a one-machine broker: n learn
// ports push weights, and every commit (and every retire) is answered by an
// aggregate echo to each learn port. There are no explorers unless a test
// adds them to cfg and rebuilds.
type aggRig struct {
	br    *broker.Broker
	cfg   core.BroadcastConfig
	port  *broker.Port // the fragment's
	cast  *core.BroadcastFragment
	ctl   *broker.Port
	learn []*broker.Port
}

// newAggRig builds the rig and starts its fragment.
func newAggRig(tb testing.TB, n int, init []float32) *aggRig {
	tb.Helper()
	rig := newIdleAggRig(tb, n, init)
	rig.cast.Start()
	return rig
}

// newIdleAggRig builds the rig with its fragment not yet started, so a test
// can queue messages for the fragment's first receive.
func newIdleAggRig(tb testing.TB, n int, init []float32) *aggRig {
	tb.Helper()
	rig := &aggRig{br: broker.New(broker.Config{})}
	var err error
	if rig.ctl, err = rig.br.Register("supervisor"); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = core.LearnName(i)
		p, err := rig.br.Register(names[i])
		if err != nil {
			tb.Fatal(err)
		}
		rig.learn = append(rig.learn, p)
	}
	rig.cfg = core.BroadcastConfig{
		Learners:       names,
		InitialWeights: init,
	}
	rig.rebuild(tb)
	tb.Cleanup(func() {
		rig.br.Stop()
		rig.retire(tb)
	})
	return rig
}

// rebuild replaces the fragment with a fresh, unstarted one on a fresh
// port. The old fragment's loop ends when its port closes.
func (r *aggRig) rebuild(tb testing.TB) {
	tb.Helper()
	if r.cast != nil {
		r.br.Unregister(core.BroadcastName)
		r.retire(tb)
	}
	var err error
	if r.port, err = r.br.Register(core.BroadcastName); err != nil {
		tb.Fatal(err)
	}
	r.cast = core.NewBroadcastFragment(r.port, r.cfg)
}

// retire stops and joins the fragment after its port closed.
func (r *aggRig) retire(tb testing.TB) {
	tb.Helper()
	r.cast.Stop()
	r.cast.Join()
	if err := r.cast.Err(); err != nil {
		tb.Error(err)
	}
}

// send queues data as replica i's weights, stamped with incarnation epoch.
func (r *aggRig) send(tb testing.TB, i int, data []float32, epoch int32) {
	tb.Helper()
	m := message.New(message.TypeWeights, core.LearnName(i), []string{core.BroadcastName},
		&message.WeightsPayload{Data: data})
	m.Header.Round = epoch
	if err := r.learn[i].Send(m); err != nil {
		tb.Fatal(err)
	}
}

// push sends data as replica i's weights and returns the aggregate echo.
func (r *aggRig) push(tb testing.TB, i int, data []float32) []float32 {
	tb.Helper()
	r.send(tb, i, data, 0)
	return r.echo(tb)
}

// sendQuarantine queues the retirement of replica i.
func (r *aggRig) sendQuarantine(tb testing.TB, i int) {
	tb.Helper()
	m := message.New(message.TypeControl, r.ctl.Name(), []string{core.BroadcastName},
		&message.ControlPayload{Kind: message.ControlQuarantine, Peer: core.LearnName(i)})
	if err := r.ctl.Send(m); err != nil {
		tb.Fatal(err)
	}
}

// quarantine retires replica i and returns the survivors' aggregate echo.
func (r *aggRig) quarantine(tb testing.TB, i int) []float32 {
	tb.Helper()
	r.sendQuarantine(tb, i)
	return r.echo(tb)
}

// echo receives one aggregate echo on every learn port and returns the
// first port's copy.
func (r *aggRig) echo(tb testing.TB) []float32 {
	tb.Helper()
	return r.echoPayload(tb).Data
}

// echoPayload is echo returning the whole echo, version included.
func (r *aggRig) echoPayload(tb testing.TB) *message.WeightsPayload {
	tb.Helper()
	var out *message.WeightsPayload
	for i, p := range r.learn {
		m, err := p.Recv()
		if err != nil {
			tb.Fatalf("%s: %v", p.Name(), err)
		}
		w, ok := m.Body.(*message.WeightsPayload)
		if !ok {
			tb.Fatalf("%s received %T, want the aggregate echo", p.Name(), m.Body)
		}
		if i == 0 {
			out = w
		}
	}
	return out
}

// waitQueued waits until the fragment's port holds n undelivered headers.
func (r *aggRig) waitQueued(tb testing.TB, n int) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.port.Pending() < n {
		if time.Now().After(deadline) {
			tb.Fatalf("fragment port holds %d headers, want %d", r.port.Pending(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// nameOrderedMean is the reference aggregate of replicas that each pushed
// one value in every element: the values summed from +0 in sorted name
// order, then divided by their count, all in float32.
func nameOrderedMean(pushed map[string]float32) float32 {
	names := make([]string, 0, len(pushed))
	for name := range pushed {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float32
	for _, name := range names {
		sum += pushed[name]
	}
	return sum / float32(len(names))
}

// TestBroadcastMeanIsNameOrdered: the replica mean sums in replica-name
// order, so identical pushes commit identical weights in every element and
// on every run, whatever the replica count, and the survivor mean after a
// quarantine does too. The pushed values make the order visible: in float32
// (1e8 + 1) - 1e8 is 0 but (1e8 - 1e8) + 1 is 1.
func TestBroadcastMeanIsNameOrdered(t *testing.T) {
	vals := []float32{1e8, 1, -1e8, 3, -7}
	const params, rounds = 64, 40
	check := func(t *testing.T, what string, got []float32, want float32) {
		t.Helper()
		if len(got) != params {
			t.Fatalf("%s: echo has %d params, want %d", what, len(got), params)
		}
		bad, first := 0, -1
		for j, v := range got {
			if math.Float32bits(v) != math.Float32bits(want) {
				bad++
				if first < 0 {
					first = j
				}
			}
		}
		if bad > 0 {
			t.Fatalf("%s: %d of %d elements differ from the name-ordered mean %g (element %d = %g)",
				what, bad, params, want, first, got[first])
		}
	}
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			rig := newAggRig(t, n, make([]float32, params))
			vecs := make([][]float32, n)
			for i := range vecs {
				vecs[i] = make([]float32, params)
				for j := range vecs[i] {
					vecs[i][j] = vals[i]
				}
			}
			pushed := make(map[string]float32, n)
			want := float32(0)
			for round := 0; round < rounds; round++ {
				for i := range vecs {
					pushed[core.LearnName(i)] = vals[i]
					want = nameOrderedMean(pushed)
					check(t, fmt.Sprintf("round %d push %d", round, i), rig.push(t, i, vecs[i]), want)
				}
			}

			// With no survivors the last aggregate stands.
			retired := n / 2
			delete(pushed, core.LearnName(retired))
			if len(pushed) > 0 {
				want = nameOrderedMean(pushed)
			}
			check(t, fmt.Sprintf("retire %d", retired), rig.quarantine(t, retired), want)
			for i := range vecs {
				if i != retired {
					check(t, fmt.Sprintf("survivor push %d", i), rig.push(t, i, vecs[i]), want)
				}
			}
		})
	}
}

// settle ends the fragment's loop, joins it, and waits until the router has
// routed everything the fragment sent, so the broker's counters are final.
func (r *aggRig) settle(tb testing.TB) {
	tb.Helper()
	r.br.Unregister(core.BroadcastName)
	r.retire(tb)
	deadline := time.Now().Add(5 * time.Second)
	for m := r.br.Metrics(); m.HeadersRouted != m.Sends; m = r.br.Metrics() {
		if time.Now().After(deadline) {
			tb.Fatalf("router stuck: %d of %d headers routed", m.HeadersRouted, m.Sends)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// filled returns a params-long vector holding v in every element.
func filled(params int, v float32) []float32 {
	out := make([]float32, params)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkEcho fails unless the echo carries version and holds want in every
// element, bit for bit.
func checkEcho(t *testing.T, what string, got *message.WeightsPayload, version int64, want float32) {
	t.Helper()
	if got.Version != version {
		t.Fatalf("%s: echo version %d, want %d", what, got.Version, version)
	}
	for j, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("%s: element %d = %g, want %g", what, j, v, want)
		}
	}
}

// TestBroadcastFoldCommitsOnce: pushes A1, B1, A2 queued before the
// fragment's first receive fold into one commit. It sends one broadcast
// and one echo, bit-identical to the name-ordered mean of A2 and B1. The version lands
// three past the initial one, Aggregations is 3, and A1 is released unread.
func TestBroadcastFoldCommitsOnce(t *testing.T) {
	const params = 64
	rig := newIdleAggRig(t, 2, filled(params, 0))
	explorer, err := rig.br.Register(core.ExplorerName(0))
	if err != nil {
		t.Fatal(err)
	}
	rig.cfg.Explorers = []string{core.ExplorerName(0)}
	rig.cfg.InitialVersion = 10
	rig.rebuild(t)
	rig.send(t, 0, filled(params, -7), 0) // A1, superseded by A2
	rig.send(t, 1, filled(params, 1e8), 0)
	rig.send(t, 0, filled(params, 3), 0)
	rig.waitQueued(t, 3)
	rig.cast.Start()

	checkEcho(t, "fold", rig.echoPayload(t), 13, nameOrderedMean(map[string]float32{
		core.LearnName(0): 3, core.LearnName(1): 1e8,
	}))
	rig.settle(t)
	if got := rig.cast.Aggregations(); got != 3 {
		t.Fatalf("Aggregations = %d, want 3", got)
	}
	m := rig.br.Metrics()
	if m.Superseded != 1 {
		t.Fatalf("Superseded = %d, want 1 (A1)", m.Superseded)
	}
	if got := explorer.Pending(); got != 2 {
		t.Fatalf("%d broadcasts, want 2 (the seed and one commit)", got)
	}
	for _, p := range rig.learn {
		if n := p.Pending(); n != 0 {
			t.Fatalf("%s holds %d more echoes, want one echo in all", p.Name(), n)
		}
	}
}

// TestBroadcastFoldStopsAtControl: a quarantine queued between pushes ends
// the fold, so the backlog commits in order: A1+B1 as one commit, then the
// retirement of B, then A2 alone.
func TestBroadcastFoldStopsAtControl(t *testing.T) {
	const params = 64
	rig := newIdleAggRig(t, 2, filled(params, 0))
	rig.send(t, 0, filled(params, 5), 0)
	rig.send(t, 1, filled(params, 1e8), 0)
	rig.sendQuarantine(t, 1)
	rig.send(t, 0, filled(params, -3), 0)
	rig.waitQueued(t, 4)
	rig.cast.Start()

	checkEcho(t, "A1+B1", rig.echoPayload(t), 2, nameOrderedMean(map[string]float32{
		core.LearnName(0): 5, core.LearnName(1): 1e8,
	}))
	checkEcho(t, "retire B", rig.echoPayload(t), 3, 5)
	checkEcho(t, "A2", rig.echoPayload(t), 4, -3)
	rig.settle(t)
	if got := rig.cast.Aggregations(); got != 3 {
		t.Fatalf("Aggregations = %d, want 3", got)
	}
	if got := rig.br.Metrics().Superseded; got != 0 {
		t.Fatalf("Superseded = %d, want 0: no push was superseded", got)
	}
}

// TestBroadcastFoldFencesStalePush: a push from a retired incarnation
// inside a backlog is fenced exactly as it would be alone — counted in
// StalePushes, released unread, never folded into the mean or the version.
func TestBroadcastFoldFencesStalePush(t *testing.T) {
	const params = 64
	rig := newIdleAggRig(t, 2, filled(params, 0))
	rig.cast.SetFailover(time.Minute, nil)
	rig.send(t, 0, filled(params, 5), 0)
	rig.send(t, 0, filled(params, 1e8), 1) // epoch 1: not the live incarnation
	rig.send(t, 1, filled(params, 7), 0)
	rig.waitQueued(t, 3)
	rig.cast.Start()

	checkEcho(t, "fold", rig.echoPayload(t), 2, nameOrderedMean(map[string]float32{
		core.LearnName(0): 5, core.LearnName(1): 7,
	}))
	rig.settle(t)
	if got := rig.cast.StalePushes(); got != 1 {
		t.Fatalf("StalePushes = %d, want 1", got)
	}
	if got := rig.cast.Aggregations(); got != 2 {
		t.Fatalf("Aggregations = %d, want 2", got)
	}
	if got := rig.br.Metrics().Superseded; got != 1 {
		t.Fatalf("Superseded = %d, want 1 (the fenced push)", got)
	}
}

// TestBroadcastFoldOpensOlderPush: with a readable push A1 queued behind
// an undecodable A2 from the same replica, the fold falls back to A1. It
// commits A1 once, at one version past the initial one; A2 is counted as a
// receive error, and nothing is released as superseded.
func TestBroadcastFoldOpensOlderPush(t *testing.T) {
	const params = 8
	rig := newIdleAggRig(t, 1, filled(params, 0))
	rig.send(t, 0, filled(params, 5), 0)
	rig.waitQueued(t, 1)
	inject(t, rig.br, message.New(message.TypeWeights, core.LearnName(0), []string{core.BroadcastName}, nil))
	rig.waitQueued(t, 2)
	rig.cast.Start()

	waitUntil(t, 5*time.Second, "A1's echo", func() bool { return rig.learn[0].Pending() == 1 })
	checkEcho(t, "A1", rig.echoPayload(t), 1, 5)
	rig.settle(t)
	if got := rig.cast.Aggregations(); got != 1 {
		t.Fatalf("Aggregations = %d, want 1", got)
	}
	if got := rig.br.Metrics().Superseded; got != 0 {
		t.Fatalf("Superseded = %d, want 0: A1 was the newest readable push", got)
	}
	rig.br.Stop()
	checkSkipped(t, rig.br)
}
