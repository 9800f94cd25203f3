package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three reference functions are the scalar matmul loops the axpy
// kernel replaced, kept verbatim as the oracle the kernels must match bit
// for bit.

func refMatMul(a, b *Tensor) *Tensor {
	out := New(a.Rows, b.Cols)
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*m : (p+1)*m]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulTransposeB(a, b *Tensor) *Tensor {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			out.Data[i*b.Rows+j] = sum
		}
	}
	return out
}

func refMatMulTransposeA(a, b *Tensor) *Tensor {
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// sameBits reports whether got and want are the same float32 bit patterns,
// except that any NaN equals any NaN: x86 keeps the first operand's payload,
// and which operand comes first in the scalar loop is the compiler's choice.
func sameBits(got, want []float32) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i, g := range got {
		w := want[i]
		if math.Float32bits(g) == math.Float32bits(w) || (g != g && w != w) {
			continue
		}
		return i, false
	}
	return 0, true
}

// specials are the inputs where a vector kernel could part from the scalar
// loop: signed zeros, infinities, NaN, subnormals and values whose products
// overflow.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.SmallestNonzeroFloat32 * 3,
	math.MaxFloat32, -math.MaxFloat32 / 3, 1e19, -1e-19,
}

// fillMixed fills t with normals, a share of zeros (so the zero-skips run)
// and, at rate special, values drawn from specials.
func fillMixed(rng *rand.Rand, t *Tensor, special float64) {
	for i := range t.Data {
		switch r := rng.Float64(); {
		case r < special:
			t.Data[i] = specials[rng.Intn(len(specials))]
		case r < special+0.15:
			t.Data[i] = 0
		default:
			t.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
	}
}

// checkKernels runs the three matmuls on (n×k)@(k×m), (n×k)@(m×k)ᵀ and
// (n×k)ᵀ@(n×m), built from a, bf, bt and ba, against their references.
func checkKernels(a, bf, bt, ba *Tensor) error {
	for _, c := range []struct {
		name      string
		got, want *Tensor
	}{
		{"MatMul", MatMul(a, bf), refMatMul(a, bf)},
		{"MatMulTransposeB", MatMulTransposeB(a, bt), refMatMulTransposeB(a, bt)},
		{"MatMulTransposeA", MatMulTransposeA(a, ba), refMatMulTransposeA(a, ba)},
	} {
		if c.got.Rows != c.want.Rows || c.got.Cols != c.want.Cols {
			return fmt.Errorf("%s shape %dx%d, want %dx%d", c.name, c.got.Rows, c.got.Cols, c.want.Rows, c.want.Cols)
		}
		if i, ok := sameBits(c.got.Data, c.want.Data); !ok {
			return fmt.Errorf("%s[%d] = %v (%#08x), want %v (%#08x)", c.name, i,
				c.got.Data[i], math.Float32bits(c.got.Data[i]), c.want.Data[i], math.Float32bits(c.want.Data[i]))
		}
	}
	return nil
}

// TestKernelsMatchReference holds the three matmuls to their scalar loops
// bit for bit, for every output width 1…70 (every residue mod 16, so every
// tail of the kernel runs) against every inner dimension 1…70.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rates := []float64{0, 0.01, 0.2}
	for m := 1; m <= 70; m++ {
		for k := 1; k <= 70; k++ {
			n := 1 + (3*m+k)%5
			special := rates[(m+k)%len(rates)]
			a, bf, bt, ba := New(n, k), New(k, m), New(m, k), New(n, m)
			for _, x := range []*Tensor{a, bf, bt, ba} {
				fillMixed(rng, x, special)
			}
			if err := checkKernels(a, bf, bt, ba); err != nil {
				t.Fatalf("n=%d k=%d m=%d special=%v: %v", n, k, m, special, err)
			}
		}
	}
}

// TestAxpyMatchesGeneric holds axpy to axpyGeneric directly, at every
// length 0…70 and every start offset mod 16 bytes, and checks it writes
// nothing past len(b). Off amd64 axpy is axpyGeneric.
func TestAxpyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []float64{0, 0.1} {
				b, o := New(1, n+off), New(1, n+off+3)
				fillMixed(rng, b, special)
				fillMixed(rng, o, special)
				a := specials[rng.Intn(len(specials))]
				if rng.Intn(2) == 0 {
					a = float32(rng.NormFloat64())
				}
				want := o.Clone()
				axpyGeneric(want.Data[off:], b.Data[off:], a)
				axpy(o.Data[off:], b.Data[off:], a)
				if i, ok := sameBits(o.Data, want.Data); !ok {
					t.Fatalf("n=%d off=%d a=%v: o[%d] = %v, want %v", n, off, a, i, o.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestAxpy4MatchesGeneric holds axpy4 to axpy4Generic and both to four
// axpyGeneric calls in order, at every length 0…70 and every start offset
// mod 16 bytes, and checks they write nothing past len(b0). Off amd64 axpy4
// is axpy4Generic.
func TestAxpy4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []float64{0, 0.1} {
				var bs [4]*Tensor
				var as [4]float32
				for r := range bs {
					bs[r] = New(1, n+off+r)
					fillMixed(rng, bs[r], special)
					as[r] = specials[rng.Intn(len(specials))]
					if rng.Intn(2) == 0 {
						as[r] = float32(rng.NormFloat64())
					}
				}
				o := New(1, n+off+3)
				fillMixed(rng, o, special)
				b0, b1, b2, b3 := bs[0].Data[off:off+n], bs[1].Data[off:], bs[2].Data[off:], bs[3].Data[off:]

				want := o.Clone()
				for r, b := range [][]float32{b0, b1, b2, b3} {
					axpyGeneric(want.Data[off:], b[:n], as[r])
				}
				generic := o.Clone()
				axpy4Generic(generic.Data[off:], b0, b1, b2, b3, as[0], as[1], as[2], as[3])
				axpy4(o.Data[off:], b0, b1, b2, b3, as[0], as[1], as[2], as[3])
				for name, got := range map[string]*Tensor{"axpy4Generic": generic, "axpy4": o} {
					if i, ok := sameBits(got.Data, want.Data); !ok {
						t.Fatalf("%s n=%d off=%d a=%v: o[%d] = %v, want %v", name, n, off, as, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestAxpy4PanicsOnShortOperand(t *testing.T) {
	long, short := make([]float32, 4), make([]float32, 3)
	for i, args := range [][5][]float32{
		{short, long, long, long, long},
		{long, long, short, long, long},
		{long, long, long, short, long},
		{long, long, long, long, short},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: axpy4 with a short operand did not panic", i)
				}
			}()
			axpy4(args[0], args[1], args[2], args[3], args[4], 1, 1, 1, 1)
		}()
	}
}

// boundaryZeros returns a rows×cols tensor of non-zero values in which row
// i has exactly min(i, cols) zeros, placed where a group of four
// consecutive terms starts or ends (columns 3, 0, 7, 4, 11, 8, …, in that
// order). Its rows' non-zero counts therefore take every remainder mod 4
// once rows ≥ 4, and the zero-skip drops terms right at the group seams.
func boundaryZeros(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		v := float32(rng.NormFloat64())
		if rng.Intn(8) == 0 {
			v = specials[2+rng.Intn(len(specials)-2)] // the non-zero specials
		}
		if v == 0 {
			v = 1
		}
		t.Data[i] = v
	}
	var order []int
	for g := 0; g < cols; g += 4 {
		for _, p := range []int{g + 3, g} {
			if p < cols {
				order = append(order, p)
			}
		}
	}
	for g := 0; g < cols; g += 4 {
		for _, p := range []int{g + 1, g + 2} {
			if p < cols {
				order = append(order, p)
			}
		}
	}
	for i := 0; i < rows; i++ {
		for _, p := range order[:min(i, cols)] {
			t.Data[i*cols+p] = 0
		}
	}
	return t
}

// TestKernelsMatchReferenceGroupRemainders extends the oracle to the
// grouping axpy4 brings: rows of a (for MatMul) and columns of a (for
// MatMulTransposeA) whose non-zero counts leave every remainder 0–3, with
// the zeros at group seams, and inner widths 1…17 for MatMulTransposeB,
// which groups consecutive terms with no zero-skip. Batches of 31–65 rows
// cross MatMulTransposeA's row blocks.
func TestKernelsMatchReferenceGroupRemainders(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, m := range []int{1, 3, 4, 7, 8, 16, 17, 33} {
		for k := 1; k <= 17; k++ {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 34, 35, 65} {
				rowPat := boundaryZeros(rng, n, k)
				colPat := boundaryZeros(rng, k, n).Transpose()
				for _, a := range []*Tensor{rowPat, colPat} {
					bf, bt, ba := New(k, m), New(m, k), New(n, m)
					for _, x := range []*Tensor{bf, bt, ba} {
						fillMixed(rng, x, 0.05)
					}
					if err := checkKernels(a, bf, bt, ba); err != nil {
						t.Fatalf("n=%d k=%d m=%d: %v", n, k, m, err)
					}
				}
			}
		}
	}
}

func TestAxpyPanicsOnShortOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("axpy with len(o) < len(b) did not panic")
		}
	}()
	axpy(make([]float32, 3), make([]float32, 4), 1)
}

// FuzzMatMulKernels holds the three matmuls to their scalar loops on
// arbitrary shapes and arbitrary float32 bit patterns.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(17), []byte{0x00, 0x00, 0x80, 0x7f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f})
	f.Add(uint8(1), uint8(64), uint8(64), []byte{0xff, 0xff, 0x7f, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Add(uint8(2), uint8(1), uint8(70), []byte{0x00, 0x00, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		dn, dk, dm := 1+int(n)%8, 1+int(k)%72, 1+int(m)%72
		var next int
		fill := func(x *Tensor) {
			for i := range x.Data {
				if len(data) >= 4 {
					j := next % (len(data) - 3)
					x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[j:]))
					next += 4
				}
			}
		}
		a, bf, bt, ba := New(dn, dk), New(dk, dm), New(dm, dk), New(dn, dm)
		for _, x := range []*Tensor{a, bf, bt, ba} {
			fill(x)
		}
		if err := checkKernels(a, bf, bt, ba); err != nil {
			t.Fatalf("n=%d k=%d m=%d: %v", dn, dk, dm, err)
		}
	})
}

// benchMatMul times op on an (xr×xc) and a (wr×wc) operand. The shapes
// below are a learner batch of 41 through a 64-wide hidden layer (forward,
// input gradient, weight gradient) and an explorer's per-step forward.
func benchMatMul(b *testing.B, xr, xc, wr, wc int, op func(x, w *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(37))
	x, w := New(xr, xc), New(wr, wc)
	x.Randn(rng, 1)
	w.Randn(rng, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = op(x, w)
	}
}

func BenchmarkMatMul41x64(b *testing.B)           { benchMatMul(b, 41, 64, 64, 64, MatMul) }
func BenchmarkMatMulTransposeB41x64(b *testing.B) { benchMatMul(b, 41, 64, 64, 64, MatMulTransposeB) }
func BenchmarkMatMulTransposeA41x64(b *testing.B) { benchMatMul(b, 41, 64, 41, 64, MatMulTransposeA) }
func BenchmarkMatMul1x64(b *testing.B)            { benchMatMul(b, 1, 64, 64, 64, MatMul) }
