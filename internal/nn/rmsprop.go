package nn

import "math"

// RMSProp's step runs on two fast paths, each bit for bit the float
// formula of the RMSProp doc comment.
//
// Small states. A parameter whose gradient is exactly zero (a dead ReLU
// unit's weights) only decays its state: sq = Decay·sq. Below the normal
// range that multiply takes a microcode assist on x86, and the state never
// leaves it: Decay·k·2⁻¹⁴⁹ rounds back to k·2⁻¹⁴⁹ once Decay·k is within
// ½ of k (k ≤ 50 for Decay 0.99), so such a lane would take the assist on every
// later step. decaySmall computes that product with integers instead, and
// subZero the parameter's update, a signed zero. Adam's moments stick the
// same way and take the same two helpers (adamStep.lane).
//
// Vector groups. On amd64, rmspropGroups runs four lanes at a time with
// SSE2 (rmsprop_amd64.s), small lanes included. Every float operation is
// the scalar one, correctly rounded per lane, in the same order; √ is
// SQRTPS, the correctly rounded float32 square root, which
// float32(math.Sqrt(float64(x))) also is (a float64 square root rounded to
// float32 is rounded once in effect, since 53 ≥ 2·24 + 2).

const (
	signBit    = 1 << 31
	expBits    = 0xff << 23
	quietBit   = 1 << 22
	smallState = 1 << 24 // the states decaySmall takes: bits below 2^24
)

// rmspropStep is one RMSProp step's constants.
type rmspropStep struct {
	decay, keep, lr, eps float32
	// A lane is small when its gradient is ±0 and its state's bits are
	// below small: 2^24 (0 ≤ sq < 2⁻¹²⁵) when the integer decay is exact for
	// these constants, else 0, so no lane is. m is Decay's 24-bit
	// significand.
	small, m uint32
}

// newRMSPropStep returns the constants of one step. The small-state path
// needs Decay in [0.5, 1), so that Decay = m·2⁻²⁴ (decaySmall), and
// 0 < LR < ∞ and Eps > 0, so that LR·g/(√sq + Eps) is a zero carrying g's
// sign; other constants take the float formula on every lane.
func newRMSPropStep(lr, decay, eps float32) rmspropStep {
	k := rmspropStep{decay: decay, keep: 1 - decay, lr: lr, eps: eps}
	if decay >= 0.5 && decay < 1 && lr > 0 && lr <= math.MaxFloat32 && eps > 0 {
		k.small = smallState
		k.m = math.Float32bits(decay)&(1<<23-1) | 1<<23
	}
	return k
}

// run applies the step to one parameter tensor's values p, gradients g and
// states sq: the vector kernel takes whole groups of four, lane takes the
// rest.
func (k *rmspropStep) run(p, g, sq []float32) {
	g, sq = g[:len(p)], sq[:len(p)]
	for j := rmspropGroups(p, g, sq, k); j < len(p); j++ {
		k.lane(&p[j], &sq[j], g[j])
	}
}

// lane updates one parameter: by the integer path when it is small, by the
// float formula otherwise. It is the portable body of the step, and the
// definition the vector kernel must match bit for bit.
func (k *rmspropStep) lane(p, sq *float32, g float32) {
	gb, sb := math.Float32bits(g), math.Float32bits(*sq)
	if gb&^signBit != 0 || sb >= k.small {
		v := k.decay**sq + k.keep*g*g
		*sq = v
		*p -= k.lr * g / (float32(math.Sqrt(float64(v))) + k.eps)
		return
	}
	// (1−Decay)·g·g is +0, and Decay·sq + (+0) is Decay·sq. LR·g/(√sq + Eps)
	// is a zero with g's sign.
	*sq = math.Float32frombits(decaySmall(sb, k.m))
	*p = subZero(*p, gb == signBit)
}

// subZero returns p − z for a zero z, negative if neg is set, as IEEE
// subtraction gives it: p, except that -0 − (−0) is +0 and a NaN comes out
// quieted.
func subZero(p float32, neg bool) float32 {
	switch pb := math.Float32bits(p); {
	case pb == signBit && neg:
		return 0
	case pb&^signBit > expBits:
		return math.Float32frombits(pb | quietBit)
	}
	return p
}

// decaySmall returns the bits of float32(Decay·sq) for a state sq whose
// bits b are below 2^24 and Decay = m·2⁻²⁴ in [0.5, 1). Such an sq is
// exactly b·2⁻¹⁴⁹ (a subnormal, or a normal of the lowest binade, whose
// bits also read b), so the exact product is b·m·2⁻¹⁷³. It is below 2⁻¹²⁵,
// where float32 values are the multiples of 2⁻¹⁴⁹, so rounding it to
// float32 rounds b·m/2^24 to an integer, half to even, and that integer is
// the result's bit pattern.
func decaySmall(b, m uint32) uint32 {
	x := uint64(b) * uint64(m)
	q, r := x>>24, x&(1<<24-1)
	if r > 1<<23 || r == 1<<23 && q&1 == 1 {
		q++
	}
	return uint32(q)
}
