// Package nn is a from-scratch neural-network library: feed-forward and
// convolutional layers with reverse-mode differentiation, standard
// optimizers, and flat-weight export/import.
//
// It is the DNN substrate for the DRL algorithm zoo. The flat-weight codec
// (Network.FlatWeights / SetFlatWeights) is what travels in XingTian's
// "updated DNN parameters" messages from the learner to the explorers.
package nn

import (
	"fmt"
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
type Layer interface {
	// Forward computes the layer output for a batch (rows = batch size).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward receives dLoss/dOutput and returns dLoss/dInput, accumulating
	// parameter gradients internally.
	Backward(grad *tensor.Tensor) *tensor.Tensor
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
	// added into dW, and the input gradient.
	y, xTg, dx *tensor.Tensor
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
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	d.y = tensor.MatMulInto(d.y, x, d.W)
	d.y.AddRowVector(d.B)
	return d.y
}

// Backward accumulates dW += xᵀ@grad and dB += column sums, and returns
// grad@Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.xTg = tensor.MatMulTransposeAInto(d.xTg, d.x, grad)
	d.dW.AddInPlace(d.xTg)
	for r := 0; r < grad.Rows; r++ {
		for c := 0; c < grad.Cols; c++ {
			d.dB.Data[c] += grad.At(r, c)
		}
	}
	d.dx = tensor.MatMulTransposeBInto(d.dx, grad, d.W)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
	y, g *tensor.Tensor // output and input-gradient workspaces
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes entries that are not positive (NaN passes through).
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.y = tensor.Reuse(l.y, x.Rows, x.Cols)
	if cap(l.mask) < len(x.Data) {
		l.mask = make([]bool, len(x.Data))
	}
	l.mask = l.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v <= 0 {
			l.mask[i] = false // l.y.Data[i] stays the +0 Reuse wrote
		} else {
			l.y.Data[i] = v
			l.mask[i] = true
		}
	}
	return l.y
}

// Backward gates the incoming gradient by the forward mask.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.g = tensor.Reuse(l.g, grad.Rows, grad.Cols)
	for i, v := range grad.Data {
		if l.mask[i] {
			l.g.Data[i] = v
		}
	}
	return l.g
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
func (l *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
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

// Conv2D is a 2-D convolution over row-major (C,H,W)-flattened inputs,
// implemented via im2col. Used by the arcade-game networks on small frames.
type Conv2D struct {
	InC, InH, InW        int
	OutC, Kernel, Stride int
	OutH, OutW           int
	W, B                 *tensor.Tensor // W is (OutC × InC*K*K)
	dW, dB               *tensor.Tensor
	cols                 *tensor.Tensor // cached im2col of the last batch
	batch                int
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D returns a convolution layer. Input rows are flattened
// (inC, inH, inW) volumes; output rows are flattened (outC, outH, outW).
func NewConv2D(rng *rand.Rand, inC, inH, inW, outC, kernel, stride int) *Conv2D {
	outH := (inH-kernel)/stride + 1
	outW := (inW-kernel)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d not positive", outH, outW))
	}
	w := tensor.New(outC, inC*kernel*kernel)
	w.XavierInit(rng, inC*kernel*kernel, outC)
	return &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, Kernel: kernel, Stride: stride,
		OutH: outH, OutW: outW,
		W:  w,
		B:  tensor.New(1, outC),
		dW: tensor.New(outC, inC*kernel*kernel),
		dB: tensor.New(1, outC),
	}
}

// OutSize returns the flattened output width per example.
func (l *Conv2D) OutSize() int { return l.OutC * l.OutH * l.OutW }

// Forward performs the convolution for a batch of flattened volumes.
func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Cols != l.InC*l.InH*l.InW {
		panic(fmt.Sprintf("nn: conv input width %d, want %d", x.Cols, l.InC*l.InH*l.InW))
	}
	l.batch = x.Rows
	patches := l.OutH * l.OutW
	k2 := l.InC * l.Kernel * l.Kernel
	cols := tensor.New(x.Rows*patches, k2)
	for n := 0; n < x.Rows; n++ {
		img := x.Data[n*x.Cols : (n+1)*x.Cols]
		for oy := 0; oy < l.OutH; oy++ {
			for ox := 0; ox < l.OutW; ox++ {
				rowIdx := (n*patches + oy*l.OutW + ox) * k2
				col := cols.Data[rowIdx : rowIdx+k2]
				i := 0
				for c := 0; c < l.InC; c++ {
					base := c * l.InH * l.InW
					for ky := 0; ky < l.Kernel; ky++ {
						src := base + (oy*l.Stride+ky)*l.InW + ox*l.Stride
						copy(col[i:i+l.Kernel], img[src:src+l.Kernel])
						i += l.Kernel
					}
				}
			}
		}
	}
	l.cols = cols
	// (batch*patches × k2) @ (k2 × OutC) -> then rearrange to (batch × OutC*patches).
	prod := tensor.MatMulTransposeB(cols, l.W) // rows: batch*patches, cols: OutC
	out := tensor.New(x.Rows, l.OutSize())
	for n := 0; n < x.Rows; n++ {
		for p := 0; p < patches; p++ {
			for oc := 0; oc < l.OutC; oc++ {
				out.Data[n*l.OutSize()+oc*patches+p] = prod.Data[(n*patches+p)*l.OutC+oc] + l.B.Data[oc]
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	patches := l.OutH * l.OutW
	k2 := l.InC * l.Kernel * l.Kernel
	// Rearrange grad (batch × OutC*patches) into (batch*patches × OutC).
	g := tensor.New(l.batch*patches, l.OutC)
	for n := 0; n < l.batch; n++ {
		for oc := 0; oc < l.OutC; oc++ {
			for p := 0; p < patches; p++ {
				v := grad.Data[n*l.OutSize()+oc*patches+p]
				g.Data[(n*patches+p)*l.OutC+oc] = v
				l.dB.Data[oc] += v
			}
		}
	}
	// dW (OutC × k2) += gᵀ @ cols.
	l.dW.AddInPlace(tensor.MatMulTransposeA(g, l.cols))
	// dCols (batch*patches × k2) = g @ W.
	dCols := tensor.MatMul(g, l.W)
	// Scatter dCols back to input layout.
	dx := tensor.New(l.batch, l.InC*l.InH*l.InW)
	for n := 0; n < l.batch; n++ {
		img := dx.Data[n*dx.Cols : (n+1)*dx.Cols]
		for oy := 0; oy < l.OutH; oy++ {
			for ox := 0; ox < l.OutW; ox++ {
				rowIdx := (n*patches + oy*l.OutW + ox) * k2
				col := dCols.Data[rowIdx : rowIdx+k2]
				i := 0
				for c := 0; c < l.InC; c++ {
					base := c * l.InH * l.InW
					for ky := 0; ky < l.Kernel; ky++ {
						dst := base + (oy*l.Stride+ky)*l.InW + ox*l.Stride
						for kx := 0; kx < l.Kernel; kx++ {
							img[dst+kx] += col[i]
							i++
						}
					}
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads implements Layer.
func (l *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.dW, l.dB} }
