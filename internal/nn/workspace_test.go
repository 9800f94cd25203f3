package nn

import (
	"math"
	"math/rand"
	"testing"

	"xingtian/internal/tensor"
)

// workspaceNet builds the same small network (same weights) on every call:
// each layer kind that keeps workspaces, with a hidden width that runs the
// kernels' tails.
func workspaceNet() *Network {
	rng := rand.New(rand.NewSource(40))
	return NewNetwork(NewDense(rng, 5, 19), NewReLU(), NewDense(rng, 19, 7), NewTanh(), NewDense(rng, 7, 3))
}

func randBatch(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	x.Randn(rng, 1)
	return x
}

// fresh returns what a never-used network computes for x: its output and,
// after a backward of grad, its parameter gradients.
func fresh(x, grad *tensor.Tensor) (y *tensor.Tensor, grads [][]float32) {
	net := workspaceNet()
	y = net.Forward(x).Clone()
	net.Backward(grad)
	for _, g := range net.Grads() {
		grads = append(grads, append([]float32(nil), g.Data...))
	}
	return y, grads
}

func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestLayerWorkspaceContract pins the Layer workspace contract: a result is
// valid until the same network's next call of the same method, the next
// call computes from its own input alone, and two networks never share a
// buffer. The batch shape changes as it does in a learner's step (a 1-row
// bootstrap forward, then the 40-row batch) and then shrinks back.
func TestLayerWorkspaceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net, other := workspaceNet(), workspaceNet()
	for step, rows := range []int{1, 40, 40, 1, 7} {
		x := randBatch(rng, rows, 5)
		grad := randBatch(rng, rows, 3)
		wantY, wantGrads := fresh(x, grad)

		// Interleave a forward of another batch on the same network and of
		// this batch on a second network: neither may leak into this one.
		net.Forward(randBatch(rng, 1+step, 5))
		y := net.Forward(x)
		yOther := other.Forward(randBatch(rng, rows, 5))
		requireBits(t, "output", y.Data, wantY.Data)
		if y == yOther || &y.Data[0] == &yOther.Data[0] {
			t.Fatalf("step %d: two networks returned the same output buffer", step)
		}

		net.ZeroGrads()
		net.Backward(grad)
		for i, g := range net.Grads() {
			requireBits(t, "gradient", g.Data, wantGrads[i])
		}
		if y2 := net.Forward(x); y2 != y {
			t.Fatalf("step %d: a same-shape forward did not reuse the output workspace", step)
		}
	}
}

// TestNetworkStepAllocatesNothing: once warmed on a batch shape, a
// learner's step (zero grads, forward, loss, backward, clip, optimizer)
// allocates nothing.
func TestNetworkStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork(NewDense(rng, 4, 64), NewReLU(), NewDense(rng, 64, 64), NewReLU(), NewDense(rng, 64, 2))
	opt := NewRMSProp(1e-3)
	x, target, grad := randBatch(rng, 40, 4), randBatch(rng, 40, 2), tensor.New(40, 2)
	step := func() {
		net.ZeroGrads()
		y := net.Forward(x)
		MSELoss(y, target, grad)
		net.Backward(grad)
		net.ClipGradNorm(40)
		opt.Step(net)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a warmed forward + backward + step allocates %.0f times, want 0", allocs)
	}
}
