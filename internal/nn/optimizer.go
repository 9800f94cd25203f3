package nn

import (
	"math"

	"xingtian/internal/tensor"
)

// Optimizer updates network parameters from accumulated gradients.
type Optimizer interface {
	// Step applies one update using the network's current gradients and then
	// leaves the gradients untouched (callers usually ZeroGrads after).
	Step(n *Network)
}

// Adam is the Adam optimizer (Kingma & Ba, 2015).
//
// Its update, per parameter p with gradient g and moments m and v at step
// t, is
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + (1−β2)·g·g
//	p -= LR·(m/(1−β1ᵗ)) / (√(v/(1−β2ᵗ)) + Eps)
//
// each operation rounded to float32 in that order. Step computes exactly
// that, bit for bit; a lane whose gradient is zero and whose first moment
// has decayed into the subnormal range takes an exact integer path instead
// (adamStep.lane).
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	m, v                  [][]float32
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard defaults for unset
// moments (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *Adam) Step(n *Network) {
	params := n.Params()
	grads := n.Grads()
	if o.m == nil {
		o.m = make([][]float32, len(params))
		o.v = make([][]float32, len(params))
		for i, p := range params {
			o.m[i] = make([]float32, len(p.Data))
			o.v[i] = make([]float32, len(p.Data))
		}
	}
	o.t++
	k := newAdamStep(o)
	for i, p := range params {
		g := grads[i].Data[:len(p.Data)]
		m, v := o.m[i][:len(p.Data)], o.v[i][:len(p.Data)]
		for j := range p.Data {
			k.lane(&p.Data[j], &m[j], &v[j], g[j])
		}
	}
}

// adamStep is one Adam step's constants.
type adamStep struct {
	lr, beta1, beta2, eps, bc1, bc2 float32
	// A lane takes the integer path when its gradient is ±0, its first
	// moment's magnitude bits are below small and decay to at most mMax,
	// and its second moment is +0…+∞. small is 2^24 when the path is exact
	// for these constants (see newAdamStep), else 0. m1 and m2 are β1's and
	// β2's 24-bit significands.
	small, mMax, m1, m2 uint32
}

// newAdamStep returns the constants of o's step o.t. The integer path needs
// β1 and β2 in [0.5, 1) (decaySmall), 0 < LR < ∞, Eps > 0, and 1 − β1ᵗ
// rounded to exactly 1 (from t = 165 on for β1 = 0.9), so that m/(1−β1ᵗ)
// is m. Then for a zero gradient the update LR·m/(√v̂ + Eps) rounds to a
// zero with m's sign whenever LR·m does, which it does for an m of b units
// of 2⁻¹⁴⁹ exactly when LR·b ≤ ½ (mMax bounds b): v̂ is +0…+∞, so the
// denominator is positive and its value does not matter.
func newAdamStep(o *Adam) adamStep {
	k := adamStep{lr: o.LR, beta1: o.Beta1, beta2: o.Beta2, eps: o.Eps,
		bc1: 1 - float32(math.Pow(float64(o.Beta1), float64(o.t))),
		bc2: 1 - float32(math.Pow(float64(o.Beta2), float64(o.t))),
	}
	inDecay := func(b float32) bool { return b >= 0.5 && b < 1 }
	if k.bc1 == 1 && inDecay(o.Beta1) && inDecay(o.Beta2) && o.LR > 0 && o.LR <= math.MaxFloat32 && o.Eps > 0 {
		k.small = smallState
		k.m1 = math.Float32bits(o.Beta1)&(1<<23-1) | 1<<23
		k.m2 = math.Float32bits(o.Beta2)&(1<<23-1) | 1<<23
		lr := float64(o.LR) // LR·b is exact in float64 for b < 2^24
		k.mMax = uint32(min(0.5/lr, 1<<24))
		for k.mMax > 0 && lr*float64(k.mMax) > 0.5 {
			k.mMax--
		}
		for k.mMax < 1<<24 && lr*float64(k.mMax+1) <= 0.5 {
			k.mMax++
		}
	}
	return k
}

// lane updates one parameter: by the integer path when it qualifies (see
// adamStep), by the float formula otherwise, bit for bit the same.
func (k *adamStep) lane(p, m, v *float32, g float32) {
	gb, mb, vb := math.Float32bits(g), math.Float32bits(*m), math.Float32bits(*v)
	if gb&^signBit == 0 && mb&^signBit < k.small && vb <= expBits {
		if d := decaySmall(mb&^signBit, k.m1); d <= k.mMax {
			// β1·m keeps m's sign; adding (1−β1)·g, a zero with g's sign,
			// changes only a zero product's sign, to -0 if both are negative.
			sign := mb & signBit
			if d == 0 {
				sign &= gb
			}
			*m = math.Float32frombits(sign | d)
			// (1−β2)·g·g is +0, and β2·v + (+0) is β2·v.
			if vb < smallState {
				*v = math.Float32frombits(decaySmall(vb, k.m2))
			} else {
				*v = k.beta2 * *v
			}
			*p = subZero(*p, sign != 0)
			return
		}
	}
	mj := k.beta1**m + (1-k.beta1)*g
	vj := k.beta2**v + (1-k.beta2)*g*g
	*m, *v = mj, vj
	mhat := mj / k.bc1
	vhat := vj / k.bc2
	*p -= k.lr * mhat / (float32(math.Sqrt(float64(vhat))) + k.eps)
}

// RMSProp is the RMSProp optimizer used by the original IMPALA paper.
//
// Its update, per parameter p with gradient g and state sq, is
//
//	sq = Decay·sq + (1−Decay)·g·g
//	p -= LR·g / (√sq + Eps)
//
// each operation rounded to float32 in that order. Step computes exactly
// that, bit for bit, on two fast paths (rmsprop.go): 4-lane groups go
// through a vector kernel, and a lane whose gradient is zero and whose
// state has decayed below 2⁻¹²⁵ takes an exact integer decay instead of a
// float multiply on a subnormal.
type RMSProp struct {
	LR, Decay, Eps float32
	sq             [][]float32
}

var _ Optimizer = (*RMSProp)(nil)

// NewRMSProp returns an RMSProp optimizer (decay=0.99, ε=1e-8).
func NewRMSProp(lr float32) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.99, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *RMSProp) Step(n *Network) {
	params := n.Params()
	grads := n.Grads()
	if o.sq == nil {
		o.sq = make([][]float32, len(params))
		for i, p := range params {
			o.sq[i] = make([]float32, len(p.Data))
		}
	}
	k := newRMSPropStep(o.LR, o.Decay, o.Eps)
	for i, p := range params {
		k.run(p.Data, grads[i].Data, o.sq[i])
	}
}

// Loss helpers ---------------------------------------------------------------

// MSELoss returns the mean-squared error between pred and target and writes
// the gradient dLoss/dPred into gradOut (which must share pred's shape).
func MSELoss(pred, target, gradOut *tensor.Tensor) float32 {
	n := float32(len(pred.Data))
	var loss float32
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		gradOut.Data[i] = 2 * d / n
	}
	return loss / n
}
