package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xingtian/internal/tensor"
)

// numericalGradCheck verifies analytic parameter gradients of net against
// central finite differences of a scalar loss.
func numericalGradCheck(t *testing.T, net *Network, x *tensor.Tensor, lossFn func(y *tensor.Tensor) (float32, *tensor.Tensor), tol float32) {
	t.Helper()
	net.ZeroGrads()
	y := net.Forward(x)
	_, grad := lossFn(y)
	net.Backward(grad)

	params := net.Params()
	grads := net.Grads()
	const eps = 1e-3
	for pi, p := range params {
		for j := 0; j < len(p.Data); j += 1 + len(p.Data)/17 { // sample params
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lp, _ := lossFn(net.Forward(x))
			p.Data[j] = orig - eps
			lm, _ := lossFn(net.Forward(x))
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := grads[pi].Data[j]
			if diff := float32(math.Abs(float64(numeric - analytic))); diff > tol && diff > tol*float32(math.Abs(float64(numeric))) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, j, analytic, numeric)
			}
		}
	}
}

func mseTo(target *tensor.Tensor) func(y *tensor.Tensor) (float32, *tensor.Tensor) {
	return func(y *tensor.Tensor) (float32, *tensor.Tensor) {
		grad := tensor.New(y.Rows, y.Cols)
		loss := MSELoss(y, target, grad)
		return loss, grad
	}
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 4, 3)
	x := tensor.New(5, 4)
	x.Randn(rng, 1)
	y := d.Forward(x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("Forward shape = %dx%d, want 5x3", y.Rows, y.Cols)
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(NewDense(rng, 3, 2))
	x := tensor.New(4, 3)
	x.Randn(rng, 1)
	target := tensor.New(4, 2)
	target.Randn(rng, 1)
	numericalGradCheck(t, net, x, mseTo(target), 2e-2)
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(
		NewDense(rng, 4, 8),
		NewTanh(),
		NewDense(rng, 8, 2),
	)
	x := tensor.New(3, 4)
	x.Randn(rng, 1)
	target := tensor.New(3, 2)
	target.Randn(rng, 1)
	numericalGradCheck(t, net, x, mseTo(target), 2e-2)
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(
		NewDense(rng, 5, 6),
		NewReLU(),
		NewDense(rng, 6, 3),
	)
	x := tensor.New(4, 5)
	x.Randn(rng, 1)
	target := tensor.New(4, 3)
	target.Randn(rng, 1)
	numericalGradCheck(t, net, x, mseTo(target), 2e-2)
}

func TestFlatWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewNetwork(NewDense(rng, 4, 8), NewReLU(), NewDense(rng, 8, 2))
	b := NewNetwork(NewDense(rng, 4, 8), NewReLU(), NewDense(rng, 8, 2))
	w := a.FlatWeights()
	if len(w) != a.NumParams() {
		t.Fatalf("FlatWeights len %d, NumParams %d", len(w), a.NumParams())
	}
	if err := b.SetFlatWeights(w); err != nil {
		t.Fatalf("SetFlatWeights: %v", err)
	}
	x := tensor.New(3, 4)
	x.Randn(rng, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("networks differ after weight transfer")
		}
	}
}

func TestSetFlatWeightsBadLength(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(NewDense(rng, 2, 2))
	if err := net.SetFlatWeights(make([]float32, 3)); err == nil {
		t.Fatal("SetFlatWeights with wrong length did not error")
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(NewDense(rng, 3, 3))
	for _, g := range net.Grads() {
		g.Fill(10)
	}
	pre := net.ClipGradNorm(1.0)
	if pre < 10 {
		t.Fatalf("pre-clip norm = %v, want large", pre)
	}
	var sq float64
	for _, g := range net.Grads() {
		n := g.Norm()
		sq += float64(n * n)
	}
	if post := math.Sqrt(sq); post > 1.0001 {
		t.Fatalf("post-clip norm = %v, want <= 1", post)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	opts := map[string]func() Optimizer{
		"adam":     func() Optimizer { return NewAdam(0.01) },
		"rms_prop": func() Optimizer { return NewRMSProp(0.01) },
	}
	for name, mk := range opts {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			net := NewNetwork(NewDense(rng, 2, 16), NewTanh(), NewDense(rng, 16, 1))
			opt := mk()
			// Learn XOR-ish regression: y = x0*x1.
			x := tensor.New(64, 2)
			x.Randn(rng, 1)
			target := tensor.New(64, 1)
			for r := 0; r < 64; r++ {
				target.Data[r] = x.At(r, 0) * x.At(r, 1)
			}
			grad := tensor.New(64, 1)
			first := float32(0)
			last := float32(0)
			for epoch := 0; epoch < 300; epoch++ {
				net.ZeroGrads()
				y := net.Forward(x)
				loss := MSELoss(y, target, grad)
				if epoch == 0 {
					first = loss
				}
				last = loss
				net.Backward(grad)
				opt.Step(net)
			}
			if last > first/4 {
				t.Fatalf("%s: loss %v -> %v; did not learn", name, first, last)
			}
		})
	}
}

// TestPropertyForwardDeterministic: same weights + same input => identical
// output across calls (no hidden state leaks between batches).
func TestPropertyForwardDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(NewDense(rng, 3, 5), NewReLU(), NewDense(rng, 5, 2))
		x := tensor.New(2, 3)
		x.Randn(rng, 1)
		y1 := net.Forward(x).Clone()
		// Interleave a different batch, then repeat the original.
		other := tensor.New(4, 3)
		other.Randn(rng, 1)
		net.Forward(other)
		y2 := net.Forward(x)
		for i := range y1.Data {
			if y1.Data[i] != y2.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFlatWeightsIdempotent: export/import/export is stable.
func TestPropertyFlatWeightsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(NewDense(rng, 4, 4), NewTanh(), NewDense(rng, 4, 3))
		w1 := net.FlatWeights()
		if err := net.SetFlatWeights(w1); err != nil {
			return false
		}
		w2 := net.FlatWeights()
		for i := range w1 {
			if w1[i] != w2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(NewDense(rng, 128, 256), NewReLU(), NewDense(rng, 256, 6))
	x := tensor.New(32, 128)
	x.Randn(rng, 1)
	target := tensor.New(32, 6)
	grad := tensor.New(32, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		y := net.Forward(x)
		MSELoss(y, target, grad)
		net.Backward(grad)
	}
}
