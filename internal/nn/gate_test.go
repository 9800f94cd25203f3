package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"xingtian/internal/tensor"
)

// refGateReLU is the scalar loop the ReLU layers' vector gate replaced,
// verbatim: a cleared output, then grad wherever y is not <= 0 (positive
// or NaN).
func refGateReLU(grad, y *tensor.Tensor) *tensor.Tensor {
	dst := tensor.New(grad.Rows, grad.Cols)
	ys := y.Data[:len(grad.Data)]
	for i, v := range grad.Data {
		if !(ys[i] <= 0) {
			dst.Data[i] = v
		}
	}
	return dst
}

// FuzzGateReLU holds the gate the ReLU layers run (tensor.GateReLUInto,
// the AVX pass where the CPU has it) to the scalar loop it replaced, bit
// for bit, on arbitrary float32 bit patterns in both operands and lengths
// 0…70, so every 32-lane block and masked remainder runs. The output is a
// reused tensor full of garbage: the gate must write every element.
func FuzzGateReLU(f *testing.F) {
	f.Add(uint8(9), []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(uint8(70), []byte{0x01, 0, 0, 0x80, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(33), []byte{0, 0, 0x80, 0x7f, 0x01, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		dn := int(n) % 71
		var next int
		fill := func(x *tensor.Tensor) {
			for i := range x.Data {
				if len(data) >= 4 {
					j := next % (len(data) - 3)
					x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[j:]))
					next += 4
				}
			}
		}
		grad, y := tensor.New(1, dn), tensor.New(1, dn)
		fill(grad)
		fill(y)
		out := tensor.New(1, 80)
		out.Fill(float32(math.NaN()))
		got := tensor.GateReLUInto(out, grad, y)
		want := refGateReLU(grad, y)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("n=%d: shape %dx%d, want %dx%d", dn, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, w := range want.Data {
			if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d: out[%d] = %#08x, want %#08x (grad %#08x, y %#08x)", dn, i,
					math.Float32bits(g), math.Float32bits(w), math.Float32bits(grad.Data[i]), math.Float32bits(y.Data[i]))
			}
		}
	})
}

// BenchmarkGateReLU40x64 times the gate on a learner's 64-wide hidden layer
// over a batch of 40, with y a ReLU output (about half +0).
func BenchmarkGateReLU40x64(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	grad, y := tensor.New(40, 64), tensor.New(40, 64)
	grad.Randn(rng, 1)
	y.Randn(rng, 1)
	for i, v := range y.Data {
		y.Data[i] = max(v, 0)
	}
	out := tensor.GateReLUInto(nil, grad, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tensor.GateReLUInto(out, grad, y)
	}
}
