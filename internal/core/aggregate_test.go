package core_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/message"
)

// aggRig runs a broadcast fragment alone on a one-machine broker: n learn
// ports push weights, and with SyncEvery 1 every push (and every retire) is
// answered by an aggregate echo to each learn port. There are no explorers,
// and the version announces to the absent sampler are dropped.
type aggRig struct {
	ctl   *broker.Port
	learn []*broker.Port
}

func newAggRig(tb testing.TB, n int, init []float32) *aggRig {
	tb.Helper()
	br := broker.New(broker.Config{})
	castPort, err := br.Register(core.BroadcastName)
	if err != nil {
		tb.Fatal(err)
	}
	rig := &aggRig{}
	if rig.ctl, err = br.Register("supervisor"); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = core.LearnName(i)
		p, err := br.Register(names[i])
		if err != nil {
			tb.Fatal(err)
		}
		rig.learn = append(rig.learn, p)
	}
	cast := core.NewBroadcastFragment(castPort, core.BroadcastConfig{
		Learners:       names,
		SyncEvery:      1,
		InitialWeights: init,
	})
	cast.Start()
	tb.Cleanup(func() {
		br.Stop()
		cast.Stop()
		cast.Join()
		if err := cast.Err(); err != nil {
			tb.Error(err)
		}
	})
	return rig
}

// push sends data as replica i's weights and returns the aggregate echo.
func (r *aggRig) push(tb testing.TB, i int, data []float32) []float32 {
	tb.Helper()
	m := message.New(message.TypeWeights, core.LearnName(i), []string{core.BroadcastName},
		&message.WeightsPayload{Data: data})
	if err := r.learn[i].Send(m); err != nil {
		tb.Fatal(err)
	}
	return r.echo(tb)
}

// quarantine retires replica i and returns the survivors' aggregate echo.
func (r *aggRig) quarantine(tb testing.TB, i int) []float32 {
	tb.Helper()
	m := message.New(message.TypeControl, r.ctl.Name(), []string{core.BroadcastName},
		&message.ControlPayload{Kind: message.ControlQuarantine, Peer: core.LearnName(i)})
	if err := r.ctl.Send(m); err != nil {
		tb.Fatal(err)
	}
	return r.echo(tb)
}

// echo receives one aggregate echo on every learn port and returns the
// first port's copy.
func (r *aggRig) echo(tb testing.TB) []float32 {
	tb.Helper()
	var out []float32
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
			out = w.Data
		}
	}
	return out
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
