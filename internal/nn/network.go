package nn

import (
	"errors"
	"fmt"
	"math"

	"xingtian/internal/tensor"
)

// ErrWeightSize is returned when a flat-weight payload does not match the
// receiving network's parameter count.
var ErrWeightSize = errors.New("nn: flat weights length mismatch")

// Network is a sequential stack of layers with flat-weight export/import
// for parameter broadcast. Its Forward and BackwardInput results follow the
// Layer workspace contract: valid until the network's next call of the same
// method.
type Network struct {
	// layers are the stages run, in order: the given layers, with each
	// Dense directly followed by a ReLU merged into one denseReLU.
	layers []Layer
	// params and grads are the layers' tensors in layer order, gathered
	// once: the optimizers and ZeroGrads ask for them every step.
	params, grads []*tensor.Tensor
}

// NewNetwork returns a sequential network over the given layers. A ReLU
// directly after a Dense runs inside that Dense's output pass (denseReLU),
// with the same results bit for bit; that ReLU value is then never called.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{}
	for i := 0; i < len(layers); i++ {
		l := layers[i]
		if d, ok := l.(*Dense); ok && i+1 < len(layers) {
			if _, ok := layers[i+1].(*ReLU); ok {
				l = denseReLU{d}
				i++
			}
		}
		n.layers = append(n.layers, l)
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	return n
}

// Forward runs the batch through all layers.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dLoss/dOutput back through all layers, accumulating
// parameter gradients. It skips dLoss/dInput, the first layer's input
// gradient: a learner's step never reads it. BackwardInput computes it.
func (n *Network) Backward(grad *tensor.Tensor) { n.backward(grad, false) }

// BackwardInput is Backward that also computes and returns dLoss/dInput,
// for a caller that differentiates through the network's input (DDPG's
// actor update through its critic).
func (n *Network) BackwardInput(grad *tensor.Tensor) *tensor.Tensor { return n.backward(grad, true) }

func (n *Network) backward(grad *tensor.Tensor, wantInput bool) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad, wantInput || i > 0)
	}
	return grad
}

// Params returns all learnable tensors in layer order. The slice is the
// network's own, capacity-limited so an append copies it; do not assign to
// its elements.
func (n *Network) Params() []*tensor.Tensor { return n.params[:len(n.params):len(n.params)] }

// Grads returns all gradient tensors aligned with Params, under the same
// terms.
func (n *Network) Grads() []*tensor.Tensor { return n.grads[:len(n.grads):len(n.grads)] }

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// FlatWeights copies all parameters into one contiguous slice — the payload
// of a weights-broadcast message.
func (n *Network) FlatWeights() []float32 {
	return n.AppendFlatWeights(make([]float32, 0, n.NumParams()))
}

// AppendFlatWeights appends all parameters to dst in FlatWeights order and
// returns the extended slice.
func (n *Network) AppendFlatWeights(dst []float32) []float32 {
	for _, p := range n.params {
		dst = append(dst, p.Data...)
	}
	return dst
}

// SetFlatWeights loads parameters from a slice produced by FlatWeights on a
// network of identical architecture.
func (n *Network) SetFlatWeights(w []float32) error {
	if len(w) != n.NumParams() {
		return fmt.Errorf("%w: got %d, network has %d params", ErrWeightSize, len(w), n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Data, w[off:off+len(p.Data)])
		off += len(p.Data)
	}
	return nil
}

// CopyWeightsFrom copies parameters from src, which must share the
// architecture.
func (n *Network) CopyWeightsFrom(src *Network) error {
	return n.SetFlatWeights(src.FlatWeights())
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
func (n *Network) ClipGradNorm(maxNorm float32) float32 {
	var sq float64
	grads := n.Grads()
	for _, g := range grads {
		norm := g.Norm()
		sq += float64(norm) * float64(norm)
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, g := range grads {
			g.ScaleInPlace(scale)
		}
	}
	return norm
}
