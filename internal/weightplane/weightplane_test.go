package weightplane

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xingtian/internal/message"
	"xingtian/internal/serialize"
)

// mirror mimics an explorer: dense sets, deltas chain.
type mirror struct {
	version int64
	flat    []float32
}

func (m *mirror) receive(t *testing.T, o Outbound) {
	t.Helper()
	switch b := o.Body.(type) {
	case *message.WeightsPayload:
		m.version = b.Version
		m.flat = append([]float32(nil), b.Data...)
	case *message.WeightsDeltaPayload:
		if b.BaseVersion != m.version {
			t.Fatalf("delta base %d does not match mirror version %d", b.BaseVersion, m.version)
		}
		out, err := serialize.ApplyDelta(m.flat, b)
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		m.flat = out
		m.version = b.Version
	default:
		t.Fatalf("unexpected body %T", o.Body)
	}
}

func deliver(t *testing.T, mirrors map[string]*mirror, outs []Outbound) {
	t.Helper()
	covered := map[string]bool{}
	for _, o := range outs {
		for _, d := range o.Dsts {
			if covered[d] {
				t.Fatalf("destination %s covered twice", d)
			}
			covered[d] = true
			mirrors[d].receive(t, o)
		}
	}
}

func step(rng *rand.Rand, w []float32, mag float64) []float32 {
	out := append([]float32(nil), w...)
	for i := range out {
		if rng.Float64() < 0.2 {
			out[i] += float32(rng.NormFloat64() * mag)
		}
	}
	return out
}

// TestPlannerChainConvergence: across many broadcasts every mirror tracks
// the canonical reconstruction bit-exactly, and non-first broadcasts are
// deltas, not dense.
func TestPlannerChainConvergence(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
	dsts := []string{"explorer-0", "explorer-1", "explorer-2"}
	mirrors := map[string]*mirror{}
	for _, d := range dsts {
		mirrors[d] = &mirror{}
	}
	rng := rand.New(rand.NewSource(1))
	w := step(rng, make([]float32, 400), 1)

	for v := int64(1); v <= 20; v++ {
		outs := p.Plan(w, v, dsts, nil)
		deliver(t, mirrors, outs)
		if v > 1 {
			for _, o := range outs {
				if o.Type != message.TypeWeightsDelta {
					t.Fatalf("broadcast %d used %v, want delta", v, o.Type)
				}
			}
		}
		// All mirrors bit-identical, at the current version.
		ref := mirrors[dsts[0]]
		if ref.version != v {
			t.Fatalf("mirror at version %d after broadcast %d", ref.version, v)
		}
		for _, d := range dsts[1:] {
			m := mirrors[d]
			if m.version != ref.version || len(m.flat) != len(ref.flat) {
				t.Fatalf("mirror %s diverged in shape/version", d)
			}
			for i := range m.flat {
				if m.flat[i] != ref.flat[i] {
					t.Fatalf("mirror %s diverged at %d", d, i)
				}
			}
		}
		w = step(rng, w, 0.02)
	}
	s := p.Stats()
	if s.Delta == 0 || s.Dense != int64(len(dsts)) {
		t.Fatalf("stats = %+v; want exactly one dense round then deltas", s)
	}
}

// TestPlannerStragglerGetsExactDelta: a destination missing from some
// broadcasts still converges onto the canonical vector via an exact delta.
func TestPlannerStragglerGetsExactDelta(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
	all := []string{"a", "b"}
	mirrors := map[string]*mirror{"a": {}, "b": {}}
	rng := rand.New(rand.NewSource(2))
	w := step(rng, make([]float32, 200), 1)

	deliver(t, mirrors, p.Plan(w, 1, all, nil))
	// Broadcasts 2..4 target only "a".
	for v := int64(2); v <= 4; v++ {
		w = step(rng, w, 0.02)
		deliver(t, mirrors, p.Plan(w, v, []string{"a"}, nil))
	}
	// Broadcast 5 targets both; "b" is 4 versions behind.
	w = step(rng, w, 0.02)
	deliver(t, mirrors, p.Plan(w, 5, all, nil))
	ma, mb := mirrors["a"], mirrors["b"]
	if ma.version != 5 || mb.version != 5 {
		t.Fatalf("versions = %d/%d, want 5/5", ma.version, mb.version)
	}
	for i := range ma.flat {
		if ma.flat[i] != mb.flat[i] {
			t.Fatalf("straggler diverged at %d: %v vs %v", i, ma.flat[i], mb.flat[i])
		}
	}
}

// TestPlannerSkipEmitsEmptyDelta: negligible updates become version bumps,
// never silence (weights traffic doubles as credit).
func TestPlannerSkipEmitsEmptyDelta(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8, SkipFactor: 0.5})
	dsts := []string{"x"}
	mirrors := map[string]*mirror{"x": {}}
	rng := rand.New(rand.NewSource(3))
	w := step(rng, make([]float32, 300), 1)

	deliver(t, mirrors, p.Plan(w, 1, dsts, nil))
	// Big moves to establish the EMA.
	for v := int64(2); v <= 5; v++ {
		w = step(rng, w, 0.1)
		deliver(t, mirrors, p.Plan(w, v, dsts, nil))
	}
	// A tiny move must be skipped — but still produce a message.
	w2 := append([]float32(nil), w...)
	w2[0] += 1e-7
	outs := p.Plan(w2, 6, dsts, nil)
	if len(outs) != 1 {
		t.Fatalf("skip produced %d messages, want 1", len(outs))
	}
	d, ok := outs[0].Body.(*message.WeightsDeltaPayload)
	if !ok || d.Entries() != 0 {
		t.Fatalf("skip body = %#v, want empty delta", outs[0].Body)
	}
	deliver(t, mirrors, outs)
	if mirrors["x"].version != 6 {
		t.Fatalf("version after skip = %d, want 6", mirrors["x"].version)
	}
	if p.Stats().Empty == 0 {
		t.Fatal("Empty stat not incremented")
	}
}

// TestPlannerNACKForcesDense: MarkStale triggers a dense snapshot on the
// next broadcast, after which deltas resume.
func TestPlannerNACKForcesDense(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
	dsts := []string{"x", "y"}
	mirrors := map[string]*mirror{"x": {}, "y": {}}
	rng := rand.New(rand.NewSource(4))
	w := step(rng, make([]float32, 100), 1)
	deliver(t, mirrors, p.Plan(w, 1, dsts, nil))
	w = step(rng, w, 0.02)
	deliver(t, mirrors, p.Plan(w, 2, dsts, nil))

	// "y" restarts: mirror wiped, NACK raised.
	mirrors["y"] = &mirror{}
	p.MarkStale("y")
	w = step(rng, w, 0.02)
	outs := p.Plan(w, 3, dsts, nil)
	var yType, xType message.Type
	for _, o := range outs {
		for _, d := range o.Dsts {
			if d == "y" {
				yType = o.Type
			} else {
				xType = o.Type
			}
		}
	}
	if yType != message.TypeWeights {
		t.Fatalf("NACKed destination got %v, want dense weights", yType)
	}
	if xType != message.TypeWeightsDelta {
		t.Fatalf("healthy destination got %v, want delta", xType)
	}
	deliver(t, mirrors, outs)
	// Next round both take deltas again and agree.
	w = step(rng, w, 0.02)
	deliver(t, mirrors, p.Plan(w, 4, dsts, nil))
	for i := range mirrors["x"].flat {
		if mirrors["x"].flat[i] != mirrors["y"].flat[i] {
			t.Fatalf("post-resync divergence at %d", i)
		}
	}
	if p.Stats().Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", p.Stats().Resyncs)
	}
}

// TestPlannerAckRegressionForcesDense: a destination whose acked version
// moves backwards (silent restart) is re-seeded densely without a NACK.
func TestPlannerAckRegressionForcesDense(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
	dsts := []string{"x"}
	mirrors := map[string]*mirror{"x": {}}
	rng := rand.New(rand.NewSource(5))
	w := step(rng, make([]float32, 100), 1)
	deliver(t, mirrors, p.Plan(w, 1, dsts, map[string]int64{"x": 0}))
	w = step(rng, w, 0.02)
	deliver(t, mirrors, p.Plan(w, 2, dsts, map[string]int64{"x": 1}))
	// Ack regresses 1 → 0: restart suspected.
	mirrors["x"] = &mirror{}
	w = step(rng, w, 0.02)
	outs := p.Plan(w, 3, dsts, map[string]int64{"x": 0})
	if len(outs) != 1 || outs[0].Type != message.TypeWeights {
		t.Fatalf("ack regression produced %+v, want dense", outs)
	}
	deliver(t, mirrors, outs)
}

// TestPlannerStaleGapForcesDense: an ack trailing beyond StaleGap forces a
// dense snapshot.
func TestPlannerStaleGapForcesDense(t *testing.T) {
	p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8, StaleGap: 2})
	dsts := []string{"x"}
	mirrors := map[string]*mirror{"x": {}}
	rng := rand.New(rand.NewSource(6))
	w := step(rng, make([]float32, 100), 1)
	deliver(t, mirrors, p.Plan(w, 1, dsts, nil))
	for v := int64(2); v <= 5; v++ {
		w = step(rng, w, 0.02)
		outs := p.Plan(w, v, dsts, map[string]int64{"x": 1})
		deliver(t, mirrors, outs)
		if v >= 4 { // gap v-1 > 2
			if outs[0].Type != message.TypeWeights {
				t.Fatalf("broadcast %d with stale ack got %v, want dense", v, outs[0].Type)
			}
		}
	}
}

// TestPlannerDisabledIsDenseStar: with the plane off, every broadcast is one
// dense message to all destinations.
func TestPlannerDisabledIsDenseStar(t *testing.T) {
	p := New(Config{})
	outs := p.Plan([]float32{1, 2}, 7, []string{"a", "b"}, nil)
	if len(outs) != 1 || outs[0].Type != message.TypeWeights || len(outs[0].Dsts) != 2 {
		t.Fatalf("disabled planner produced %+v", outs)
	}
}

// TestPlannerRecyclingMatchesReference: over 500 versions, with skipped
// versions aliasing ring entries, a straggler three versions behind, a NACK
// every 10th version and an ack regression, the recycling planner emits the
// same messages as the reference planner, which never reuses a vector. The
// learner's vector is updated in place between broadcasts, as the learners
// do; every dense body handed out is scribbled over, and every body is read
// by another goroutine while the next broadcast is planned, as the
// asynchronous sender does — so a ring vector that leaks into a body fails
// the comparison, and under -race the race detector.
func TestPlannerRecyclingMatchesReference(t *testing.T) {
	cfg := Config{Enabled: true, QuantBits: serialize.QuantInt8, SkipFactor: 0.5}
	p, ref := New(cfg), newRefPlanner(cfg)
	rng := rand.New(rand.NewSource(8))
	w := step(rng, make([]float32, 2000), 1)
	all := []string{"a", "b", "c", "straggler"}
	acked := map[string]int64{}
	var sender sync.WaitGroup
	defer sender.Wait()
	var exact int
	for v := int64(1); v <= 500; v++ {
		if v%3 == 0 { // negligible: the adaptive threshold skips it
			w[rng.Intn(len(w))] += 1e-7
		} else {
			for i := range w {
				if rng.Float64() < 0.05 {
					w[i] += float32(rng.NormFloat64() * 0.02)
				}
			}
		}
		dsts := all[:3]
		if v%4 == 0 {
			dsts = all // the straggler last heard version v-4
		}
		if v%10 == 0 {
			p.MarkStale("b")
			ref.MarkStale("b")
		}
		acked["a"], acked["c"] = v-1, v-1
		if v == 250 {
			acked["a"] = v - 5 // a silent restart
		}
		got := p.Plan(w, v, dsts, acked)
		want := ref.Plan(w, v, dsts, acked)
		sameOutbounds(t, v, got, want)
		for _, o := range got {
			switch b := o.Body.(type) {
			case *message.WeightsPayload:
				for i := range b.Data {
					b.Data[i] = float32(math.NaN())
				}
			case *message.WeightsDeltaPayload:
				if b.Values != nil {
					exact++
				}
			}
		}
		sender.Wait()
		sender.Add(1)
		go func(outs []Outbound) {
			defer sender.Done()
			for _, o := range outs {
				if _, err := serialize.Marshal(o.Body); err != nil {
					t.Errorf("marshal: %v", err)
				}
			}
		}(got)
	}
	s := p.Stats()
	if s.Empty == 0 || s.Dense == 0 || s.Delta == 0 || exact == 0 {
		t.Fatalf("stats %+v with %d straggler deltas: want skips, dense resyncs, chain and straggler deltas", s, exact)
	}
	if rs := ref.stats; s != rs {
		t.Fatalf("stats %+v, reference %+v", s, rs)
	}
}

// TestPlanGroupOrderIsDeterministic: fresh planners fed identical inputs
// plan identical group orders — the delta groups in ascending base version —
// rather than a map's iteration order. Three pairs of destinations last
// heard versions 1, 2 and 3, so the final broadcast has three delta bases.
func TestPlanGroupOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := [][]float32{step(rng, make([]float32, 300), 1)}
	for v := 1; v < 4; v++ {
		ws = append(ws, step(rng, ws[v-1], 0.1))
	}
	all := []string{"e0", "e1", "e2", "e3", "e4", "e5"}
	rounds := [][]string{all, all[:4], all[:2], all}
	plan := func() (bases []int64, dsts [][]string) {
		p := New(Config{Enabled: true, QuantBits: serialize.QuantInt8})
		var outs []Outbound
		for i, d := range rounds {
			outs = p.Plan(ws[i], int64(i+1), d, nil)
		}
		for _, o := range outs {
			bases = append(bases, o.BaseVersion)
			dsts = append(dsts, o.Dsts)
		}
		return bases, dsts
	}
	wantBases, wantDsts := plan()
	if !reflect.DeepEqual(wantBases, []int64{1, 2, 3}) {
		t.Fatalf("delta bases %v, want [1 2 3]", wantBases)
	}
	for trial := 0; trial < 50; trial++ {
		bases, dsts := plan()
		if !reflect.DeepEqual(bases, wantBases) || !reflect.DeepEqual(dsts, wantDsts) {
			t.Fatalf("trial %d: groups %v %v, first planner %v %v", trial, bases, dsts, wantBases, wantDsts)
		}
	}
}

// sameOutbounds compares two plans group by group, float bodies by bits.
// The reference plans its delta groups in map order, so groups are matched
// by destination.
func sameOutbounds(t *testing.T, v int64, got, want []Outbound) {
	t.Helper()
	byDst := func(outs []Outbound) []Outbound {
		outs = append([]Outbound(nil), outs...)
		sort.Slice(outs, func(i, j int) bool { return outs[i].Dsts[0] < outs[j].Dsts[0] })
		return outs
	}
	got, want = byDst(got), byDst(want)
	if len(got) != len(want) {
		t.Fatalf("version %d: %d groups, reference %d", v, len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Type != w.Type || g.BaseVersion != w.BaseVersion || !reflect.DeepEqual(g.Dsts, w.Dsts) {
			t.Fatalf("version %d: group %v %d %v, reference %v %d %v", v, g.Type, g.BaseVersion, g.Dsts, w.Type, w.BaseVersion, w.Dsts)
		}
		if !reflect.DeepEqual(bodyBits(g.Body), bodyBits(w.Body)) {
			t.Fatalf("version %d: %v body to %v differs from the reference", v, g.Type, g.Dsts)
		}
	}
}

// bodyBits is a weights body with its floats replaced by their bit patterns.
func bodyBits(body any) any {
	bits := func(v []float32) []uint32 {
		if v == nil {
			return nil
		}
		out := make([]uint32, len(v))
		for i, x := range v {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	switch b := body.(type) {
	case *message.WeightsPayload:
		return []any{b.Version, bits(b.Data)}
	case *message.WeightsDeltaPayload:
		return []any{b.Version, b.BaseVersion, b.NumParams, math.Float32bits(b.Scale), b.Indices, b.Q, bits(b.Values)}
	}
	return body
}

// TestPlannerAdvancesInPlaceWhenSoleHolder: a chain step writes the new
// reconstruction over the previous one (the same backing array, under the
// new version only) exactly when the plan moves every destination that may
// hold the previous one past it, and copies otherwise: for a producer-only
// broadcast that leaves destinations on the previous version, and when a
// skipped version still shares the previous vector with a straggler's
// entry. Every plan equals the reference planner's.
func TestPlannerAdvancesInPlaceWhenSoleHolder(t *testing.T) {
	cfg := Config{Enabled: true, QuantBits: serialize.QuantInt8, SkipFactor: 0.5}
	p, ref := New(cfg), newRefPlanner(cfg)
	rng := rand.New(rand.NewSource(9))
	w := step(rng, make([]float32, 600), 1)
	all := []string{"a", "b", "c"}
	for _, tc := range []struct {
		dsts    []string
		skip    bool // a negligible update the threshold skips
		inPlace bool
	}{
		{dsts: all},                                    // v1: the first broadcast, dense
		{dsts: all, inPlace: true},                     // v2: every destination on v1
		{dsts: all[:1]},                                // v3: producer only; b and c stay on v2
		{dsts: all, inPlace: true},                     // v4: only a holds v3; b and c get exact deltas from v2
		{dsts: all[:2], skip: true},                    // v5: skipped, sharing v4's vector; c stays on v4
		{dsts: all[:2]},                                // v6: v4's entry for c shares v5's vector
		{dsts: all, inPlace: true},                     // v7: v6 is a and b's alone
		{dsts: []string{"c", "b", "a"}, inPlace: true}, // v8: order does not matter
	} {
		v := p.lastVer + 1
		if tc.skip {
			w[rng.Intn(len(w))] += 1e-7
		} else {
			w = step(rng, w, 0.02)
		}
		lastVer := p.lastVer
		prev, _ := p.lookup(lastVer)
		emptyBefore := p.Stats().Empty
		got := p.Plan(w, v, tc.dsts, nil)
		sameOutbounds(t, v, got, ref.Plan(w, v, tc.dsts, nil))
		if tc.skip != (p.Stats().Empty > emptyBefore) {
			t.Fatalf("version %d: skipped=%v, want %v", v, !tc.skip, tc.skip)
		}
		recon, ok := p.lookup(v)
		if !ok {
			t.Fatalf("version %d: no ring entry", v)
		}
		aliased := len(prev) > 0 && &recon[0] == &prev[0]
		if tc.skip {
			continue // a skipped version shares its predecessor's vector by design
		}
		if aliased != tc.inPlace {
			t.Fatalf("version %d: advanced in place = %v, want %v", v, aliased, tc.inPlace)
		}
		if _, kept := p.lookup(lastVer); tc.inPlace && kept {
			t.Fatalf("version %d: the entry of version %d survived an in-place advance", v, lastVer)
		}
	}
}
