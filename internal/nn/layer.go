// Package nn is a from-scratch neural-network library: feed-forward layers
// with reverse-mode differentiation, standard optimizers, and flat-weight
// export/import.
//
// It is the DNN substrate for the DRL algorithm zoo. The flat-weight codec
// (Network.FlatWeights / SetFlatWeights) is what travels in XingTian's
// "updated DNN parameters" messages from the learner to the explorers.
package nn

import (
	"math"
	"math/rand"

	"xingtian/internal/tensor"
)

// Layer is a differentiable network stage. Forward must be called before
// Backward for the same batch; layers cache activations between the two.
//
// Workspace contract: the tensor Forward returns, and the tensor Backward
// returns, belong to the layer and stay valid only until that layer's next
// call of the same method, which may overwrite them in place. A caller that
// needs a result past that point copies it. Layers of different networks
// never share these buffers.
//
// Input-gradient contract: Backward computes dLoss/dInput only when
// wantInput is set, and otherwise returns nil. A Network sets it for every
// layer but the first, and for the first only in BackwardInput: nothing in
// a learner's step reads the input's gradient, and for a Dense it is a
// whole matmul.
type Layer interface {
	// Forward computes the layer output for a batch (rows = batch size).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward receives dLoss/dOutput, accumulates parameter gradients
	// internally and, if wantInput is set, returns dLoss/dInput (nil
	// otherwise).
	Backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor
	// Params returns the learnable tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
}

// Dense is a fully connected layer: y = x@W + b.
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	x      *tensor.Tensor // cached input

	// Workspaces, reshaped per batch: the output, xᵀ@grad before it is
	// added into dW, the input gradient, and (fused with a ReLU, see
	// denseReLU) the incoming gradient gated by the output.
	y, xTg, dx, gated *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense returns a Glorot-initialized dense layer mapping in -> out
// features.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	w := tensor.New(in, out)
	w.XavierInit(rng, in, out)
	return &Dense{
		W:  w,
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
}

// Forward computes x@W + b.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor { return d.forward(x, false) }

// forward computes x@W + b, rectified if relu is set, in one pass over the
// output.
func (d *Dense) forward(x *tensor.Tensor, relu bool) *tensor.Tensor {
	d.x = x
	d.y = tensor.MatMulBiasInto(d.y, x, d.W, d.B, relu)
	return d.y
}

// Backward accumulates dW += xᵀ@grad and dB += column sums, and returns
// grad@Wᵀ if wantInput is set.
func (d *Dense) Backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor {
	d.xTg = tensor.MatMulTransposeAInto(d.xTg, d.x, grad)
	d.dW.AddInPlace(d.xTg)
	d.dB.AddRowsInPlace(grad)
	if !wantInput {
		return nil
	}
	d.dx = tensor.MatMulTransposeBInto(d.dx, grad, d.W)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// ReLU is the rectified linear activation. A ReLU directly after a Dense in
// a Network runs inside that Dense's output pass instead (see denseReLU).
type ReLU struct {
	y, g *tensor.Tensor // output (also Backward's gate) and input-gradient workspaces
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward sets entries that are not positive to +0 (NaN passes through).
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.y = tensor.Reuse(l.y, x.Rows, x.Cols)
	for i, v := range x.Data {
		if !(v <= 0) {
			l.y.Data[i] = v // the others stay the +0 Reuse wrote
		}
	}
	return l.y
}

// Backward passes the incoming gradient where the forward output is
// positive or NaN, and +0 elsewhere.
func (l *ReLU) Backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor {
	if !wantInput {
		return nil
	}
	l.g = tensor.GateReLUInto(l.g, grad, l.y)
	return l.g
}

// denseReLU is a Dense and the ReLU after it, run as one Network stage. The
// forward adds the bias and rectifies in the matmul's output pass
// (tensor.MatMulBiasInto); the backward gates the incoming gradient by that
// output, then runs the Dense's backward. Both are bit for bit the two
// layers run one after the other.
type denseReLU struct{ *Dense }

var _ Layer = denseReLU{}

// Forward implements Layer.
func (l denseReLU) Forward(x *tensor.Tensor) *tensor.Tensor { return l.forward(x, true) }

// Backward implements Layer.
func (l denseReLU) Backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor {
	l.gated = tensor.GateReLUInto(l.gated, grad, l.y)
	return l.Dense.Backward(l.gated, wantInput)
}

// Params implements Layer.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *ReLU) Grads() []*tensor.Tensor { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y, g *tensor.Tensor // output (also Backward's input) and gradient workspaces
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (l *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.y = tensor.Reuse(l.y, x.Rows, x.Cols)
	for i, v := range x.Data {
		l.y.Data[i] = float32(math.Tanh(float64(v)))
	}
	return l.y
}

// Backward multiplies by 1 - tanh².
func (l *Tanh) Backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor {
	if !wantInput {
		return nil
	}
	l.g = tensor.Reuse(l.g, grad.Rows, grad.Cols)
	for i, v := range l.y.Data {
		l.g.Data[i] = grad.Data[i] * (1 - v*v)
	}
	return l.g
}

// Params implements Layer.
func (l *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *Tanh) Grads() []*tensor.Tensor { return nil }
