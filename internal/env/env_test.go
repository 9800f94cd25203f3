package env

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"
)

func TestMakeKnownEnvs(t *testing.T) {
	for _, name := range []string{"CartPole", "BeamRider", "Breakout", "Qbert", "SpaceInvaders"} {
		e, err := Make(name, 1)
		if err != nil {
			t.Fatalf("Make(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("Name = %q, want %q", e.Name(), name)
		}
	}
	if _, err := Make("Pong", 1); err == nil {
		t.Fatal("Make(unknown) did not error")
	}
}

func TestCartPoleEpisodeShape(t *testing.T) {
	e := NewCartPole(7)
	obs, err := e.Reset()
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if len(obs.Vec) != 4 || obs.Frame != nil {
		t.Fatalf("obs = %+v, want 4-dim Vec", obs)
	}
	for i := range obs.Vec {
		if obs.Vec[i] < -0.05 || obs.Vec[i] > 0.05 {
			t.Fatalf("initial state[%d] = %v outside ±0.05", i, obs.Vec[i])
		}
	}
	steps := 0
	var total float64
	for {
		_, r, done, err := e.Step(steps % 2)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		total += r
		steps++
		if done {
			break
		}
		if steps > 600 {
			t.Fatal("episode did not terminate within 600 steps")
		}
	}
	if total != float64(steps) {
		t.Fatalf("return %v != steps %d (reward must be 1/step)", total, steps)
	}
}

func TestCartPoleStepAfterDone(t *testing.T) {
	e := NewCartPole(1)
	if _, _, _, err := e.Step(0); !errors.Is(err, ErrDone) {
		t.Fatalf("Step before Reset = %v, want ErrDone", err)
	}
}

func TestCartPoleMaxSteps(t *testing.T) {
	// A policy that balances by construction cannot exist trivially; instead
	// verify the step cap using physics reset each time the pole drifts:
	// alternate actions tends to keep the pole up long enough only rarely,
	// so we instead verify that done is forced at 500 by stubbing drift with
	// a tiny-angle trick: repeatedly reset until an episode reaches the cap
	// is flaky; so assert only that no episode exceeds 500 steps.
	e := NewCartPole(3)
	for ep := 0; ep < 5; ep++ {
		if _, err := e.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for steps := 0; ; steps++ {
			_, _, done, err := e.Step(steps % 2)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if done {
				if steps+1 > cpMaxSteps {
					t.Fatalf("episode ran %d steps, cap is %d", steps+1, cpMaxSteps)
				}
				break
			}
		}
	}
}

func TestCartPoleDeterministicUnderSeed(t *testing.T) {
	run := func() []float32 {
		e := NewCartPole(42)
		obs, _ := e.Reset()
		var trace []float32
		trace = append(trace, obs.Vec...)
		for i := 0; i < 50; i++ {
			o, _, done, err := e.Step(i % 2)
			if err != nil || done {
				break
			}
			trace = append(trace, o.Vec...)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

func TestArcadeObservationGeometry(t *testing.T) {
	a, err := NewArcade("Breakout", 1)
	if err != nil {
		t.Fatalf("NewArcade: %v", err)
	}
	obs, err := a.Reset()
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if obs.Vec == nil {
		t.Fatal("arcade obs missing compact features")
	}
	if len(obs.Vec) != a.FeatureDim() {
		t.Fatalf("compact features = %d, FeatureDim = %d", len(obs.Vec), a.FeatureDim())
	}
	wantBytes := 84 * 84 * 4
	if len(obs.Frame) != wantBytes {
		t.Fatalf("frame stack = %d bytes, want %d (84*84*4, the Atari payload size)", len(obs.Frame), wantBytes)
	}
	if obs.SizeBytes() < wantBytes {
		t.Fatalf("SizeBytes = %d, want >= %d (frames dominate the payload)", obs.SizeBytes(), wantBytes)
	}
}

func TestArcadePlayerVisibleInFrame(t *testing.T) {
	a, _ := NewArcade("Qbert", 2)
	obs, _ := a.Reset()
	// The player renders at value 255 somewhere in the bottom cell row of
	// the newest frame.
	last := obs.Frame[3*84*84 : 4*84*84]
	found := false
	for _, v := range last[(84-cellPx)*84:] {
		if v == 255 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("player sprite not found in bottom rows")
	}
}

func TestArcadeEpisodeTerminates(t *testing.T) {
	a, _ := NewArcade("SpaceInvaders", 3)
	if _, err := a.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for steps := 0; ; steps++ {
		_, _, done, err := a.Step(0) // noop forever: must eventually lose lives
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			return
		}
		if steps > 20000 {
			t.Fatal("noop episode never terminated")
		}
	}
}

func TestArcadeMovementBounds(t *testing.T) {
	a, _ := NewArcade("Breakout", 4)
	if _, err := a.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, _, done, err := a.Step(2); err != nil || done { // hold left
			if done {
				if _, err := a.Reset(); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				continue
			}
			t.Fatalf("Step: %v", err)
		}
	}
	if a.playerX != 0 {
		t.Fatalf("playerX = %d after holding left, want 0", a.playerX)
	}
	for i := 0; i < 100; i++ {
		if _, _, done, err := a.Step(3); err != nil || done { // hold right
			if done {
				if _, err := a.Reset(); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				continue
			}
			t.Fatalf("Step: %v", err)
		}
	}
	if a.playerX != gridW-1 {
		t.Fatalf("playerX = %d after holding right, want %d", a.playerX, gridW-1)
	}
}

func TestArcadeShooterScores(t *testing.T) {
	// With enough random fire, a shooter game must score at least once.
	a, _ := NewArcade("BeamRider", 5)
	if _, err := a.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var total float64
	for ep := 0; ep < 20; ep++ {
		for {
			_, r, done, err := a.Step([]int{1, 2, 1, 3}[a.steps%4])
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			total += r
			if done {
				if _, err := a.Reset(); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				break
			}
		}
	}
	if total <= 0 {
		t.Fatal("spray-and-move policy never scored in 20 episodes")
	}
	if math.Mod(total, 44) != 0 {
		t.Fatalf("BeamRider rewards must be multiples of 44, got total %v", total)
	}
}

func TestCompactFeaturesGeometry(t *testing.T) {
	a, _ := NewArcade("Breakout", 6)
	obs, _ := a.Reset()
	feats := obs.PooledFeatures(DefaultPool) // Vec takes precedence
	if len(feats) != a.FeatureDim() {
		t.Fatalf("features = %d, FeatureDim = %d", len(feats), a.FeatureDim())
	}
	for _, f := range feats {
		if f < 0 || f > 1 {
			t.Fatalf("feature %v outside [0,1]", f)
		}
	}
	// The player starts centered: feature 0 is its normalized position.
	if feats[0] != 0.5 {
		t.Fatalf("player position feature = %v, want 0.5", feats[0])
	}
}

func TestFramePoolingStillWorks(t *testing.T) {
	// Pooling the raw frame stack (without the compact vector) remains
	// available for pixel-input models.
	a, _ := NewArcade("Breakout", 6)
	obs, _ := a.Reset()
	frameOnly := Obs{Frame: obs.Frame, FrameH: obs.FrameH, FrameW: obs.FrameW, FrameN: obs.FrameN}
	feats := frameOnly.PooledFeatures(DefaultPool)
	want := obs.FrameN * (obs.FrameH / DefaultPool) * (obs.FrameW / DefaultPool)
	if len(feats) != want {
		t.Fatalf("pooled features = %d, want %d", len(feats), want)
	}
	max := float32(0)
	for _, f := range feats {
		if f > max {
			max = f
		}
	}
	if max < 0.9 {
		t.Fatalf("max pooled feature %v; expected the player cell ≈ 1.0", max)
	}
}

func TestPooledFeaturesVectorPassthrough(t *testing.T) {
	o := Obs{Vec: []float32{1, 2, 3}}
	got := o.PooledFeatures(4)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("vector passthrough = %v", got)
	}
}

func TestObsClone(t *testing.T) {
	a, _ := NewArcade("Qbert", 7)
	obs, _ := a.Reset()
	c := obs.Clone()
	c.Frame[0] = 99
	if obs.Frame[0] == 99 {
		t.Fatal("Clone shares frame storage")
	}
}

// TestArcadeStacksAreWindows: an arcade frame stack is a window onto the
// episode's frame strip. Its pixels are those of the env that copied every
// frame into a fresh stack (a length + CRC32C over 300 Breakout steps, three
// resets and a strip rollover, pinned at that env); consecutive stacks hold
// their N−1 shared frames at one address, except across a rollover, where the
// new strip starts with a copy of them; and every stack is capacity-capped.
func TestArcadeStacksAreWindows(t *testing.T) {
	a, _ := NewArcade("Breakout", 9)
	obs, err := a.Reset()
	if err != nil {
		t.Fatal(err)
	}
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	total := 0
	record := func(o Obs) {
		if cap(o.Frame) != len(o.Frame) {
			t.Fatalf("stack cap %d != len %d", cap(o.Frame), len(o.Frame))
		}
		crc.Write(o.Frame)
		total += len(o.Frame)
	}
	record(obs)
	// An episode's strip opens with frameStack frames and rolls over on
	// every step that finds it full, which leaves frameStack frames again.
	const rolloverEvery = stripFrames - frameStack + 1
	resets, rollovers, episodeSteps := 0, 0, 0
	for i := 0; i < 300; i++ {
		next, _, done, err := a.Step(i % 4)
		if err != nil {
			t.Fatal(err)
		}
		record(next)
		episodeSteps++
		shared, prev := next.Frame[:stackBytes-frameBytes], obs.Frame[frameBytes:]
		if episodeSteps%rolloverEvery != 0 {
			if &shared[0] != &prev[0] {
				t.Fatalf("step %d: stack does not share its predecessor's frames", i)
			}
		} else if &shared[0] == &prev[0] || !bytes.Equal(shared, prev) {
			t.Fatalf("step %d: stack on a new strip does not start with a copy of its predecessor's frames", i)
		} else {
			rollovers++
		}
		if obs = next; done {
			if obs, err = a.Reset(); err != nil {
				t.Fatal(err)
			}
			record(obs)
			resets++
			episodeSteps = 0
		}
	}
	if total != 8_580_096 || crc.Sum32() != 0xecc6b6a0 {
		t.Fatalf("stacks: %d bytes, crc %#08x; want 8580096, 0xecc6b6a0", total, crc.Sum32())
	}
	if resets != 3 || rollovers == 0 {
		t.Fatalf("%d resets, %d strip rollovers; want 3 and at least 1", resets, rollovers)
	}
}

func TestEpisodeTracker(t *testing.T) {
	tr := NewEpisodeTracker(NewCartPole(8))
	for ep := 0; ep < 3; ep++ {
		if _, err := tr.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for i := 0; ; i++ {
			_, _, done, err := tr.Step(i % 2)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if done {
				break
			}
		}
	}
	if tr.Episodes() != 3 {
		t.Fatalf("Episodes = %d, want 3", tr.Episodes())
	}
	if tr.MeanReturn(0) <= 0 {
		t.Fatalf("MeanReturn = %v, want positive", tr.MeanReturn(0))
	}
	if got := tr.MeanReturn(1); got != tr.returns[2] {
		t.Fatalf("MeanReturn(1) = %v, want last episode %v", got, tr.returns[2])
	}
}

// TestPropertyArcadeRewardNonNegativeMultiples: any action sequence yields
// rewards that are non-negative multiples of the game's pointsPerHit.
func TestPropertyArcadeRewardNonNegativeMultiples(t *testing.T) {
	f := func(seed int64, actions []byte) bool {
		a, err := NewArcade("Qbert", seed)
		if err != nil {
			return false
		}
		if _, err := a.Reset(); err != nil {
			return false
		}
		for _, act := range actions {
			_, r, done, err := a.Step(int(act) % 4)
			if err != nil {
				return false
			}
			if r < 0 || math.Mod(r, 25) != 0 {
				return false
			}
			if done {
				if _, err := a.Reset(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCartPoleStateBounded: until done, the reported state respects
// the termination thresholds.
func TestPropertyCartPoleStateBounded(t *testing.T) {
	f := func(seed int64, actions []bool) bool {
		e := NewCartPole(seed)
		if _, err := e.Reset(); err != nil {
			return false
		}
		for _, right := range actions {
			act := 0
			if right {
				act = 1
			}
			obs, _, done, err := e.Step(act)
			if err != nil {
				return false
			}
			if done {
				return true
			}
			if obs.Vec[0] < -float32(cpXLimit) || obs.Vec[0] > float32(cpXLimit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkArcadeStep(b *testing.B) {
	a, _ := NewArcade("BeamRider", 1)
	if _, err := a.Reset(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, done, err := a.Step(i % 4)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			if _, err := a.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCartPoleStep(b *testing.B) {
	e := NewCartPole(1)
	if _, err := e.Reset(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, done, err := e.Step(i % 2)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			if _, err := e.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
