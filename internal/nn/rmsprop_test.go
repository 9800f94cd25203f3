package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refRMSProp is RMSProp.Step's loop before the fast paths, kept verbatim as
// the oracle they must match bit for bit.
func refRMSProp(p, g, sq []float32, lr, decay, eps float32) {
	for j := range p {
		gj := g[j]
		sq[j] = decay*sq[j] + (1-decay)*gj*gj
		p[j] -= lr * gj / (float32(math.Sqrt(float64(sq[j]))) + eps)
	}
}

// sameFloats reports the first index where got and want differ as float32
// bit patterns, NaN matching any NaN (which operand's payload a NaN result
// carries is the compiler's choice), or -1.
func sameFloats(got, want []float32) int {
	for i, g := range got {
		if w := want[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			return i
		}
	}
	return -1
}

func bitsOf(b ...uint32) []float32 {
	out := make([]float32, len(b))
	for i, v := range b {
		out[i] = math.Float32frombits(v)
	}
	return out
}

// rmspropCrafted are the values where the fast paths could part from the
// float formula: signed zeros, the smallest and largest subnormals, the
// subnormal fixed points of a 0.99 decay (1…50), the lowest normal binade,
// 2⁻¹²⁵ (the first state not small) and its neighbours, normals, infinities,
// and quiet and signalling NaNs of both signs.
var rmspropCrafted = bitsOf(
	0, signBit, 1, 2, 49, 50, 51, 0x7fffff, signBit|1, signBit|0x7fffff,
	0x800000, 0x800001, 0xffffff, 0x1000000, 0x1000001, signBit|0x800000, signBit|0xffffff,
	math.Float32bits(1e-20), math.Float32bits(3e-4), math.Float32bits(-0.7), math.Float32bits(1), math.Float32bits(2e19),
	math.Float32bits(math.MaxFloat32), 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0xff812345,
)

// rmspropConsts are the optimizer constants the oracle test runs: the
// default, decays at both ends of [0.5, 1), and constants outside the
// small-state path's proof (decay below 0.5 or ≥ 1, LR ≤ 0 or infinite,
// Eps ≤ 0 or NaN), which must take the float formula.
var rmspropConsts = []struct{ lr, decay, eps float32 }{
	{1e-3, 0.99, 1e-8},
	{0.05, 0.5, 1e-6},
	{1e-3, math.Nextafter32(1, 0), 1e-8},
	{1e-3, 0.9, float32(math.Inf(1))},
	{1e-3, 0.3, 1e-8},
	{1e-3, 1, 1e-8},
	{1e-3, 1.5, 1e-8},
	{-1e-3, 0.99, 1e-8},
	{0, 0.99, 1e-8},
	{float32(math.Inf(1)), 0.99, 1e-8},
	{1e-3, 0.99, 0},
	{1e-3, 0.99, float32(math.NaN())},
	{1e-3, float32(math.NaN()), 1e-8},
}

// TestRMSPropStepMatchesReference runs Step's path (kernel and lanes) on
// every combination of crafted p, g and sq, under every set of constants,
// against the float formula. The lanes are laid out so every group of four
// mixes small and other lanes and the tensor ends in a tail.
func TestRMSPropStepMatchesReference(t *testing.T) {
	c := rmspropCrafted
	var p, g, sq []float32
	for _, pv := range c {
		for _, gv := range c {
			for _, sv := range c {
				p, g, sq = append(p, pv), append(g, gv), append(sq, sv)
			}
		}
	}
	p, g, sq = append(p, 1, 2, 3), append(g, 0, 0, 1), append(sq, 1, bitsOf(7)[0], 0)
	for _, k := range rmspropConsts {
		wantP, wantSq := append([]float32(nil), p...), append([]float32(nil), sq...)
		refRMSProp(wantP, g, wantSq, k.lr, k.decay, k.eps)
		gotP, gotSq := append([]float32(nil), p...), append([]float32(nil), sq...)
		step := newRMSPropStep(k.lr, k.decay, k.eps)
		step.run(gotP, g, gotSq)
		for _, r := range []struct {
			name      string
			got, want []float32
		}{{"sq", gotSq, wantSq}, {"p", gotP, wantP}} {
			if i := sameFloats(r.got, r.want); i >= 0 {
				t.Fatalf("lr=%v decay=%v eps=%v: %s[%d] = %#08x, want %#08x (p=%#08x g=%#08x sq=%#08x)",
					k.lr, k.decay, k.eps, r.name, i, math.Float32bits(r.got[i]), math.Float32bits(r.want[i]),
					math.Float32bits(p[i]), math.Float32bits(g[i]), math.Float32bits(sq[i]))
			}
		}
	}
}

// TestDecaySmallExhaustive holds the integer decay to the float multiply
// for every small state, 0 ≤ bits < 2^24, at the default decay 0.99, and
// on a stride of them at other decays in [0.5, 1).
func TestDecaySmallExhaustive(t *testing.T) {
	for _, decay := range []float32{0.99, 0.5, 0.75, 0.9, 0.999, 0.9999, math.Nextafter32(1, 0), math.Nextafter32(0.5, 1)} {
		m := newRMSPropStep(1, decay, 1).m
		stride := uint32(97)
		if decay == 0.99 {
			stride = 1
		}
		for b := uint32(0); b < 1<<24; b += stride {
			want := math.Float32bits(decay * math.Float32frombits(b))
			if got := decaySmall(b, m); got != want {
				t.Fatalf("decay %v, state %#x: decaySmall = %#x, want %#x", decay, b, got, want)
			}
		}
	}
}

// TestRMSPropKernelMatchesLane holds the vector kernel to the per-lane
// step directly, at every length 0…70 and every start offset mod 16 bytes,
// on mixes of normal values, zero gradients, small states and specials,
// and checks it writes nothing past its lanes. Off amd64 the kernel runs
// no lanes and the test holds that.
func TestRMSPropKernelMatchesLane(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pick := func() float32 {
		switch r := rng.Intn(10); {
		case r < 4:
			return float32(rng.NormFloat64() * 1e-3)
		case r < 6:
			return math.Float32frombits(uint32(rng.Intn(1 << 24)))
		case r < 8:
			return 0
		default:
			return rmspropCrafted[rng.Intn(len(rmspropCrafted))]
		}
	}
	for _, k := range rmspropConsts {
		step := newRMSPropStep(k.lr, k.decay, k.eps)
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				var p, g, sq []float32
				for i := 0; i < n+off+3; i++ {
					p, g, sq = append(p, pick()), append(g, pick()), append(sq, pick())
				}
				wantP, wantSq := append([]float32(nil), p...), append([]float32(nil), sq...)
				done := rmspropGroups(p[off:off+n], g[off:], sq[off:], &step)
				if done != n&^3 && done != 0 {
					t.Fatalf("n=%d: rmspropGroups ran %d lanes", n, done)
				}
				for j := off; j < off+done; j++ {
					step.lane(&wantP[j], &wantSq[j], g[j])
				}
				if i := sameFloats(p, wantP); i >= 0 {
					t.Fatalf("decay=%v n=%d off=%d: p[%d] = %#08x, want %#08x", k.decay, n, off, i, math.Float32bits(p[i]), math.Float32bits(wantP[i]))
				}
				if i := sameFloats(sq, wantSq); i >= 0 {
					t.Fatalf("decay=%v n=%d off=%d: sq[%d] = %#08x, want %#08x", k.decay, n, off, i, math.Float32bits(sq[i]), math.Float32bits(wantSq[i]))
				}
			}
		}
	}
}

// FuzzRMSPropStep holds Step's path to the float formula on arbitrary
// float32 bit patterns for the parameters, gradients and states, and
// arbitrary constants.
func FuzzRMSPropStep(f *testing.F) {
	f.Add(uint8(9), math.Float32bits(1e-3), math.Float32bits(0.99), math.Float32bits(1e-8),
		[]byte{0, 0, 0, 0, 1, 0, 0, 0, 0x32, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0x7f, 0})
	f.Add(uint8(17), math.Float32bits(0.01), math.Float32bits(0.5), math.Float32bits(1e-6),
		[]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0, 0x01, 0, 0x80, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, lr, decay, eps uint32, data []byte) {
		dn := int(n) % 80
		var next int
		fill := func() []float32 {
			s := make([]float32, dn)
			for i := range s {
				if len(data) >= 4 {
					j := next % (len(data) - 3)
					s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[j:]))
					next += 4
				}
			}
			return s
		}
		p, g, sq := fill(), fill(), fill()
		k := struct{ lr, decay, eps float32 }{math.Float32frombits(lr), math.Float32frombits(decay), math.Float32frombits(eps)}
		wantP, wantSq := append([]float32(nil), p...), append([]float32(nil), sq...)
		refRMSProp(wantP, g, wantSq, k.lr, k.decay, k.eps)
		step := newRMSPropStep(k.lr, k.decay, k.eps)
		step.run(p, g, sq)
		if i := sameFloats(sq, wantSq); i >= 0 {
			t.Fatalf("%+v: sq[%d] = %#08x, want %#08x", k, i, math.Float32bits(sq[i]), math.Float32bits(wantSq[i]))
		}
		if i := sameFloats(p, wantP); i >= 0 {
			t.Fatalf("%+v: p[%d] = %#08x, want %#08x", k, i, math.Float32bits(p[i]), math.Float32bits(wantP[i]))
		}
	})
}

// refAdam is Adam.Step's loop before the integer path, kept verbatim as
// the oracle it must match bit for bit, for one parameter tensor at step t.
func refAdam(p, g, m, v []float32, lr, beta1, beta2, eps float32, t int) {
	bc1 := 1 - float32(math.Pow(float64(beta1), float64(t)))
	bc2 := 1 - float32(math.Pow(float64(beta2), float64(t)))
	for j := range p {
		gj := g[j]
		m[j] = beta1*m[j] + (1-beta1)*gj
		v[j] = beta2*v[j] + (1-beta2)*gj*gj
		mhat := m[j] / bc1
		vhat := v[j] / bc2
		p[j] -= lr * mhat / (float32(math.Sqrt(float64(vhat))) + eps)
	}
}

// TestAdamStepMatchesReference runs Adam.Step on every combination of
// crafted parameter, first and second moment, and zero, tiny, normal and
// NaN gradients, at steps before and after 1−β1ᵗ rounds to 1, under
// constants inside and outside the integer path's proof, against the
// float formula.
func TestAdamStepMatchesReference(t *testing.T) {
	c := rmspropCrafted
	grads := bitsOf(0, signBit, 3, signBit|0x400000, math.Float32bits(-2e-3), 0x7fc00000)
	var p, g, m, v []float32
	for _, pv := range c {
		for _, gv := range grads {
			for _, mv := range c {
				for _, vv := range c {
					p, g, m, v = append(p, pv), append(g, gv), append(m, mv), append(v, vv)
				}
			}
		}
	}
	for _, k := range []struct {
		lr, beta1, beta2, eps float32
		t                     int
	}{
		{1e-3, 0.9, 0.999, 1e-8, 1}, {1e-3, 0.9, 0.999, 1e-8, 164}, {1e-3, 0.9, 0.999, 1e-8, 165},
		{3e-4, 0.9, 0.999, 1e-8, 1_000_000}, {0.5, 0.9, 0.999, 1e-8, 500}, {0.25, 0.5, 0.5, 1e-8, 500},
		{1e30, 0.9, 0.999, 1e-8, 500}, {1e-3, 0.3, 0.999, 1e-8, 500}, {1e-3, 0.9, 1, 1e-8, 500},
		{-1e-3, 0.9, 0.999, 1e-8, 500}, {1e-3, 0.9, 0.999, 0, 500}, {1e-3, 0.9, 0.999, float32(math.Inf(1)), 500},
	} {
		wantP, wantM, wantV := append([]float32(nil), p...), append([]float32(nil), m...), append([]float32(nil), v...)
		refAdam(wantP, g, wantM, wantV, k.lr, k.beta1, k.beta2, k.eps, k.t)

		d := NewDense(rand.New(rand.NewSource(47)), 1, len(p))
		net := NewNetwork(d)
		o := &Adam{LR: k.lr, Beta1: k.beta1, Beta2: k.beta2, Eps: k.eps, t: k.t - 1}
		o.m = [][]float32{append([]float32(nil), m...), make([]float32, len(p))}
		o.v = [][]float32{append([]float32(nil), v...), make([]float32, len(p))}
		copy(d.W.Data, p)
		copy(d.dW.Data, g)
		o.Step(net)
		for _, r := range []struct {
			name      string
			got, want []float32
		}{{"m", o.m[0], wantM}, {"v", o.v[0], wantV}, {"p", d.W.Data, wantP}} {
			if i := sameFloats(r.got, r.want); i >= 0 {
				t.Fatalf("%+v: %s[%d] = %#08x, want %#08x (p=%#08x g=%#08x m=%#08x v=%#08x)", k, r.name, i,
					math.Float32bits(r.got[i]), math.Float32bits(r.want[i]),
					math.Float32bits(p[i]), math.Float32bits(g[i]), math.Float32bits(m[i]), math.Float32bits(v[i]))
			}
		}
	}
}
