package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The three reference functions are the scalar matmul loops the vector
// kernels replaced, kept verbatim as the oracle the kernels must match bit
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

// decades are the scales fillMixed draws its normals at, 10⁻⁴ … 10⁴.
var decades = func() (d [9]float64) {
	for i := range d {
		d[i] = math.Pow(10, float64(i-4))
	}
	return d
}()

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
			t.Data[i] = float32(rng.NormFloat64() * decades[rng.Intn(len(decades))])
		}
	}
}

// checkKernels runs the three matmuls on (n×k)@(k×m), (n×k)@(m×k)ᵀ and
// (n×k)ᵀ@(n×m), built from a, bf, bt and ba, on every rowAcc path, against
// their references.
func checkKernels(a, bf, bt, ba *Tensor) (err error) {
	cases := []struct {
		name string
		op   func() *Tensor
		want *Tensor
	}{
		{"MatMul", func() *Tensor { return MatMulInto(nil, a, bf) }, refMatMul(a, bf)},
		{"MatMulTransposeB", func() *Tensor { return MatMulTransposeBInto(nil, a, bt) }, refMatMulTransposeB(a, bt)},
		{"MatMulTransposeA", func() *Tensor { return MatMulTransposeAInto(nil, a, ba) }, refMatMulTransposeA(a, ba)},
	}
	eachPath(func(path string) {
		for _, c := range cases {
			if err == nil {
				err = compareTensors(path+" "+c.name, c.op(), c.want)
			}
		}
	})
	return err
}

// compareTensors reports the first element where got and want differ in
// shape or bits (sameBits).
func compareTensors(name string, got, want *Tensor) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("%s shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i, ok := sameBits(got.Data, want.Data); !ok {
		return fmt.Errorf("%s[%d] = %v (%#08x), want %v (%#08x)", name, i,
			got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
	}
	return nil
}

// eachPath runs f once on every rowAcc path this machine has, the AVX
// kernel (when the CPU has it) and then the portable loop, and restores
// the chosen path.
func eachPath(f func(path string)) {
	saved := useAVX
	defer func() { useAVX = saved }()
	if saved {
		f("avx")
	}
	useAVX = false
	f("portable")
}

// kernelWidths are the output widths the matmul oracles sweep: every width
// 1…80, so every residue mod 8 with and without a 64-lane chunk before it
// (64 + 8 + 7 = 79), then two 64-lane chunks ± 1 and with 8-lane tails.
var kernelWidths = func() []int {
	var ms []int
	for m := 1; m <= 80; m++ {
		ms = append(ms, m)
	}
	return append(ms, 127, 128, 129, 136, 143)
}()

// TestKernelsMatchReference holds the three matmuls to their scalar loops
// bit for bit, on both rowAcc paths, for every kernel width against every
// inner dimension 1…70 with batches of 1…5 rows, and then against batches
// of 31, 32, 33 and 65 rows, which end MatMulTransposeA's row blocks just
// before, at and after a block edge.
func TestKernelsMatchReference(t *testing.T) {
	rates := []float64{0, 0.01, 0.2}
	rng := rand.New(rand.NewSource(35))
	check := func(n, k, m int) {
		special := rates[(m+k+n)%len(rates)]
		a, bf, bt, ba := New(n, k), New(k, m), New(m, k), New(n, m)
		for _, x := range []*Tensor{a, bf, bt, ba} {
			fillMixed(rng, x, special)
		}
		if err := checkKernels(a, bf, bt, ba); err != nil {
			t.Fatalf("n=%d k=%d m=%d special=%v: %v", n, k, m, special, err)
		}
	}
	for _, m := range kernelWidths {
		for k := 1; k <= 70; k++ {
			check(1+(3*m+k)%5, k, m)
		}
		for _, k := range []int{1, 5, 17} {
			for _, n := range []int{31, 32, 33, 65} {
				check(n, k, m)
			}
		}
	}
}

// TestRowAccMatchesPortable holds rowAcc to rowAccGeneric directly, for
// every width 0…150, unit and wider strides of a and b, every start offset
// of o mod 32 bytes, with and without the zero-skip, the bias and the
// ReLU. On the portable path the two are one loop.
func TestRowAccMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	eachPath(func(path string) {
		for m := 0; m <= 150; m++ {
			for flags := 0; flags < 8; flags++ {
				skip, relu, withBias := flags&1 != 0, flags&2 != 0, flags&4 != 0
				n := 1 + rng.Intn(12)
				astride, bstride := 1+rng.Intn(3), m+rng.Intn(3)
				off := rng.Intn(8)
				a, b := New(1, (n-1)*astride+1), New(1, (n-1)*bstride+m)
				o, bias := New(1, off+m), New(1, m)
				for _, x := range []*Tensor{a, b, o, bias} {
					fillMixed(rng, x, 0.1)
				}
				var bv []float32
				if withBias {
					bv = bias.Data
				}
				want := o.Clone()
				rowAccGeneric(want.Data[off:], a.Data, b.Data, bv, n, astride, bstride, relu, skip)
				rowAcc(o.Data[off:], a.Data, b.Data, bv, n, astride, bstride, relu, skip)
				if i, ok := sameBits(o.Data, want.Data); !ok {
					t.Fatalf("%s m=%d n=%d strides=%d,%d skip=%v relu=%v bias=%v: o[%d] = %v, want %v",
						path, m, n, astride, bstride, skip, relu, withBias, i, o.Data[i], want.Data[i])
				}
			}
		}
	})
}

// TestRowAccWritesNothingPastOutput runs rowAcc on a window of a larger
// buffer, for every width 0…150 and every flag, and checks that every
// element outside the window keeps its guard value.
func TestRowAccWritesNothingPastOutput(t *testing.T) {
	const pad = 72
	guard := math.Float32frombits(0x7fc0dead)
	rng := rand.New(rand.NewSource(40))
	eachPath(func(path string) {
		for m := 0; m <= 150; m++ {
			for flags := 0; flags < 4; flags++ {
				const n = 5
				a, b, bias := New(1, n), New(n, m), New(1, m)
				for _, x := range []*Tensor{a, b, bias} {
					fillMixed(rng, x, 0)
				}
				buf := make([]float32, pad+m+pad)
				for i := range buf {
					buf[i] = guard
				}
				clear(buf[pad : pad+m])
				rowAcc(buf[pad:pad+m], a.Data, b.Data, bias.Data, n, 1, m, flags&2 != 0, flags&1 != 0)
				for i, v := range buf {
					if (i < pad || i >= pad+m) && math.Float32bits(v) != math.Float32bits(guard) {
						t.Fatalf("%s m=%d flags=%d: wrote buf[%d] = %v outside o = buf[%d:%d]", path, m, flags, i, v, pad, pad+m)
					}
				}
			}
		}
	})
}

func TestRowAccPanicsOnShortOperand(t *testing.T) {
	const n, m = 4, 16
	long := make([]float32, n*m)
	eachPath(func(path string) {
		for i, args := range [][3][]float32{
			{long[:n-1], long, long[:m]},   // a
			{long, long[:n*m-1], long[:m]}, // b
			{long, long, long[:m-1]},       // bias
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s case %d: rowAcc with a short operand did not panic", path, i)
					}
				}()
				rowAcc(make([]float32, m), args[0], args[1], args[2], n, 1, m, true, true)
			}()
		}
	})
}

// TestKernelPath says which rowAcc path this test binary runs. On
// linux/amd64 it fails when /proc/cpuinfo lists avx but the probe chose
// the portable loop, so a CI runner that tests only the fallback shows.
func TestKernelPath(t *testing.T) {
	path := "portable"
	if useAVX {
		path = "avx"
	}
	t.Logf("rowAcc path: %s (%s/%s)", path, runtime.GOOS, runtime.GOARCH)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range bytes.Split(info, []byte("\n")) {
		name, flags, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(bytes.TrimSpace(name)) != "flags" {
			continue
		}
		for _, f := range bytes.Fields(flags) {
			if string(f) == "avx" && !useAVX {
				t.Fatal("/proc/cpuinfo lists avx, but the probe chose the portable loop")
			}
		}
		return
	}
}

// TestNarrowShapesMatchReference holds the three matmuls and the fused
// bias and ReLU to their scalar loops on both paths, for every width
// m = 1…9 (the transposed narrow outputs, 8 lanes, and a masked lane past
// them) by every row count 1…17 (one-row calls, one 8-row group, and two
// with leftovers) by inner dimensions 1, 2, 7, 8, 9 and 64. A fifth of
// both operands are specials (±0, ±Inf, NaN, subnormals), so the per-lane
// zero-skip meets NaN and -0 sums and the masked chunk meets every
// remainder.
func TestNarrowShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 17; n++ {
			for _, k := range []int{1, 2, 7, 8, 9, 64} {
				a, bf, bt, ba, bias := New(n, k), New(k, m), New(m, k), New(n, m), New(1, m)
				for _, x := range []*Tensor{a, bf, bt, ba, bias} {
					fillMixed(rng, x, 0.2)
				}
				if err := checkKernels(a, bf, bt, ba); err != nil {
					t.Fatalf("n=%d k=%d m=%d: %v", n, k, m, err)
				}
				if err := checkBiasReLU(a, bf, bias); err != nil {
					t.Fatalf("n=%d k=%d m=%d: %v", n, k, m, err)
				}
			}
		}
	}
}

// TestLaneAccMatchesPortable holds laneAcc to laneAccGeneric directly, for
// every width 0…150, unit and wider strides of a and b and every start
// offset of o mod 32 bytes, and checks that neither writes outside o. On
// the portable path the two are one loop.
func TestLaneAccMatchesPortable(t *testing.T) {
	const pad = 8
	guard := math.Float32frombits(0x7fc0dead)
	rng := rand.New(rand.NewSource(47))
	eachPath(func(path string) {
		for m := 0; m <= 150; m++ {
			n := 1 + rng.Intn(12)
			astride, bstride := 1+rng.Intn(3), m+rng.Intn(3)
			off := rng.Intn(8)
			a, b, o := New(1, (n-1)*astride+1), New(1, (n-1)*bstride+m), New(1, pad+off+m+pad)
			for _, x := range []*Tensor{a, b, o} {
				fillMixed(rng, x, 0.2)
			}
			for i := range o.Data {
				if i < pad+off || i >= pad+off+m {
					o.Data[i] = guard
				}
			}
			want := o.Clone()
			laneAccGeneric(want.Data[pad+off:pad+off+m], a.Data, b.Data, n, astride, bstride)
			laneAcc(o.Data[pad+off:pad+off+m], a.Data, b.Data, n, astride, bstride)
			if i, ok := sameBits(o.Data, want.Data); !ok {
				t.Fatalf("%s m=%d n=%d strides=%d,%d: o[%d] = %v, want %v",
					path, m, n, astride, bstride, i, o.Data[i], want.Data[i])
			}
		}
	})
}

// TestTransposeIntoMatchesTranspose holds transposeInto, on both paths, to
// Transpose for every shape up to 19×19 and around the 8×8 blocks of a
// 64-wide layer, and checks that it writes nothing past rows·cols.
func TestTransposeIntoMatchesTranspose(t *testing.T) {
	guard := math.Float32frombits(0x7fc0dead)
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 40, 63, 64, 65}
	rng := rand.New(rand.NewSource(48))
	eachPath(func(path string) {
		for _, rows := range sizes {
			for _, cols := range sizes {
				src := New(rows, cols)
				fillMixed(rng, src, 0.1)
				dst := make([]float32, rows*cols+8)
				for i := range dst {
					dst[i] = guard
				}
				transposeInto(dst, src.Data, rows, cols)
				want := append(src.Transpose().Data, guard, guard, guard, guard, guard, guard, guard, guard)
				for i, v := range dst {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("%s %dx%d: dst[%d] = %#08x, want %#08x", path, rows, cols, i,
							math.Float32bits(v), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

// TestGradientSumsMatchScalarLoops holds AddInPlace and AddRowsInPlace, on
// both paths, to the scalar loops they replaced (t[i] += b[i], and
// t[c] += b[r][c] over ascending r), for every width 1…80 and 1…17 rows of
// operands with specials.
func TestGradientSumsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	eachPath(func(path string) {
		for m := 1; m <= 80; m++ {
			rows := 1 + m%17
			acc, b, grad := New(rows, m), New(rows, m), New(rows, m)
			dB := New(1, m)
			for _, x := range []*Tensor{acc, b, grad, dB} {
				fillMixed(rng, x, 0.2)
			}
			want := acc.Clone()
			for i, v := range b.Data {
				want.Data[i] += v
			}
			acc.AddInPlace(b)
			if err := compareTensors(path+" AddInPlace", acc, want); err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			want = dB.Clone()
			for r := 0; r < rows; r++ {
				for c, v := range grad.Data[r*m : (r+1)*m] {
					want.Data[c] += v
				}
			}
			dB.AddRowsInPlace(grad)
			if err := compareTensors(path+" AddRowsInPlace", dB, want); err != nil {
				t.Fatalf("m=%d rows=%d: %v", m, rows, err)
			}
		}
	})
}

func TestAddRowsInPlacePanicsOnShapeMismatch(t *testing.T) {
	for _, dst := range []*Tensor{New(1, 4), New(2, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%dx%d row sums of a 5x3 did not panic", dst.Rows, dst.Cols)
				}
			}()
			dst.AddRowsInPlace(New(5, 3))
		}()
	}
}

// TestGateReLUIntoMatchesScalarLoop holds GateReLUInto, on both paths, to
// the scalar loop it replaced for every length 0…70 (each 32-lane block
// and masked remainder) on operands with specials, written into a reused
// tensor full of garbage: it must write every element and none past the
// shape.
func TestGateReLUIntoMatchesScalarLoop(t *testing.T) {
	guard := math.Float32frombits(0x7fc0dead)
	rng := rand.New(rand.NewSource(50))
	eachPath(func(path string) {
		for n := 0; n <= 70; n++ {
			grad, y := New(1, n), New(1, n)
			fillMixed(rng, grad, 0.2)
			fillMixed(rng, y, 0.3)
			want := New(1, n)
			for i, v := range grad.Data {
				if !(y.Data[i] <= 0) {
					want.Data[i] = v
				}
			}
			out := New(1, n+8)
			for i := range out.Data {
				out.Data[i] = guard
			}
			got := GateReLUInto(out, grad, y)
			if got.Rows != 1 || got.Cols != n {
				t.Fatalf("%s n=%d: shape %dx%d", path, n, got.Rows, got.Cols)
			}
			for i, v := range got.Data[:n+8] {
				w := guard
				if i < n {
					w = want.Data[i]
				}
				if math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s n=%d: out[%d] = %#08x, want %#08x", path, n, i, math.Float32bits(v), math.Float32bits(w))
				}
			}
		}
	})
}

// TestScaleInPlaceMatchesScalarLoop holds ScaleInPlace, on both paths, to
// the scalar loop it replaced for every length 0…70 (each 32-lane block
// and masked remainder) on operands with specials, by every special scale
// and a normal one, NaN payloads included; the elements past the tensor's
// length in its storage must stay untouched.
func TestScaleInPlaceMatchesScalarLoop(t *testing.T) {
	guard := math.Float32frombits(0x7fc0dead)
	rng := rand.New(rand.NewSource(51))
	scales := append([]float32{-0.37, math.Float32frombits(0x7fc00bad)}, specials...)
	eachPath(func(path string) {
		for n := 0; n <= 70; n++ {
			for _, s := range scales {
				src := New(1, n)
				fillMixed(rng, src, 0.2)
				want := make([]float32, n+8)
				for i := range want {
					want[i] = guard
				}
				copy(want, src.Data)
				for i := range want[:n] {
					want[i] *= s
				}
				got := append(src.Clone().Data, want[n:]...)
				(&Tensor{Rows: 1, Cols: n, Data: got[:n]}).ScaleInPlace(s)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s n=%d scale %#08x: element %d = %#08x, want %#08x", path, n,
							math.Float32bits(s), i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
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

// TestKernelsMatchReferenceGroupRemainders extends the oracle, on both
// rowAcc paths, to rows of a (for MatMul) and columns of a (for
// MatMulTransposeA) with every count of zeros from none up to all of them,
// placed first at the edges of groups of four, and to inner widths 1…17
// for MatMulTransposeB, which has no zero-skip. Batches of 31–65 rows
// cross MatMulTransposeA's row blocks.
func TestKernelsMatchReferenceGroupRemainders(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, m := range []int{1, 3, 4, 7, 8, 16, 17, 33, 64, 79} {
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

// FuzzMatMulKernels holds the three matmuls to their scalar loops on both
// rowAcc paths, on arbitrary shapes up to 150 columns wide and 17 rows
// (a full 8-row group of the narrow outputs' transposed lanes, and more)
// and arbitrary float32 bit patterns.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(17), []byte{0x00, 0x00, 0x80, 0x7f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f})
	f.Add(uint8(1), uint8(64), uint8(64), []byte{0xff, 0xff, 0x7f, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Add(uint8(2), uint8(1), uint8(70), []byte{0x00, 0x00, 0xc0, 0x7f})
	f.Add(uint8(4), uint8(9), uint8(142), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xbf})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		dn, dk, dm := 1+int(n)%17, 1+int(k)%72, 1+int(m)%150
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

// refBiasReLU is the bias add and ReLU that MatMulBiasInto fuses, as the
// separate passes they were: a bias loop over every row, then the ReLU
// layer's.
func refBiasReLU(y, bias *Tensor, relu bool) *Tensor {
	for r := 0; r < y.Rows; r++ {
		row := y.Data[r*y.Cols : (r+1)*y.Cols]
		for c, b := range bias.Data {
			row[c] += b
		}
	}
	if relu {
		for i, v := range y.Data {
			if v <= 0 {
				y.Data[i] = 0
			}
		}
	}
	return y
}

// checkBiasReLU holds MatMulBiasInto, with and without the ReLU and with a
// nil bias, on every rowAcc path, to refMatMul followed by the separate
// bias and ReLU passes.
func checkBiasReLU(a, b, bias *Tensor) (err error) {
	zero := New(1, b.Cols)
	for _, c := range []struct {
		bias *Tensor
		relu bool
	}{{bias, false}, {bias, true}, {nil, true}, {nil, false}} {
		ref := c.bias
		if ref == nil {
			ref = zero
		}
		want := refBiasReLU(refMatMul(a, b), ref, c.relu)
		eachPath(func(path string) {
			if err == nil {
				name := fmt.Sprintf("%s bias=%v relu=%v", path, c.bias != nil, c.relu)
				err = compareTensors(name, MatMulBiasInto(New(3, 3), a, b, c.bias, c.relu), want)
			}
		})
	}
	return err
}

// TestMatMulBiasReLUMatchesReference holds the fused bias and activation
// to the separate passes bit for bit, on both rowAcc paths, for every
// kernel width (the scalar loop, both vector chunks and the tail) on
// operands with zeros, signed zeros, NaN, infinities and subnormals, so
// the sums the ReLU sees include -0 and NaN.
func TestMatMulBiasReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, m := range kernelWidths {
		for k := 1; k <= 9; k++ {
			n := 1 + (m+k)%6
			a, b, bias := New(n, k), New(k, m), New(1, m)
			for _, x := range []*Tensor{a, b, bias} {
				fillMixed(rng, x, 0.1)
			}
			if err := checkBiasReLU(a, b, bias); err != nil {
				t.Fatalf("n=%d k=%d m=%d: %v", n, k, m, err)
			}
		}
	}
}

// FuzzMatMulBiasReLU holds the fused bias and activation to the separate
// passes on both rowAcc paths, on arbitrary shapes up to 150 columns wide
// and float32 bit patterns.
func FuzzMatMulBiasReLU(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(5), []byte{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x80, 0xbf, 0x00, 0x00, 0xc0, 0x7f})
	f.Add(uint8(1), uint8(64), uint8(1), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xff})
	f.Add(uint8(3), uint8(7), uint8(78), []byte{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		dn, dk, dm := 1+int(n)%8, 1+int(k)%72, 1+int(m)%150
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
		a, b, bias := New(dn, dk), New(dk, dm), New(1, dm)
		for _, x := range []*Tensor{a, b, bias} {
			fill(x)
		}
		if err := checkBiasReLU(a, b, bias); err != nil {
			t.Fatalf("n=%d k=%d m=%d: %v", dn, dk, dm, err)
		}
	})
}

// benchMatMul times op on an (xr×xc) and a (wr×wc) operand, writing into
// one output tensor across iterations as the nn layers do. The shapes below
// are a learner batch of 41 through a 64-wide hidden layer (forward, input
// gradient, weight gradient), an explorer's per-step forward, and the
// weight gradient of a 1764-wide frame input layer over a batch of 500.
func benchMatMul(b *testing.B, xr, xc, wr, wc int, op func(out, x, w *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(37))
	x, w := New(xr, xc), New(wr, wc)
	x.Randn(rng, 1)
	w.Randn(rng, 1)
	out := op(nil, x, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = op(out, x, w)
	}
}

func BenchmarkMatMul41x64(b *testing.B) { benchMatMul(b, 41, 64, 64, 64, MatMulInto) }
func BenchmarkMatMulTransposeB41x64(b *testing.B) {
	benchMatMul(b, 41, 64, 64, 64, MatMulTransposeBInto)
}
func BenchmarkMatMulTransposeA41x64(b *testing.B) {
	benchMatMul(b, 41, 64, 41, 64, MatMulTransposeAInto)
}
func BenchmarkMatMul1x64(b *testing.B) { benchMatMul(b, 1, 64, 64, 64, MatMulInto) }
func BenchmarkMatMulTransposeA500x1764(b *testing.B) {
	benchMatMul(b, 500, 1764, 500, 64, MatMulTransposeAInto)
}

// benchHead times op on the shapes of a learner's 2- or 1-wide head over a
// batch of 40: x is a 64-wide hidden layer's ReLU output, so about half of
// its elements are zero and the zero-skips see the data they see in a step.
func benchHead(b *testing.B, xr, xc, wr, wc int, op func(out, x, w *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(45))
	x, w := New(xr, xc), New(wr, wc)
	x.Randn(rng, 1)
	w.Randn(rng, 1)
	for i, v := range x.Data {
		x.Data[i] = max(v, 0)
	}
	out := op(nil, x, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = op(out, x, w)
	}
}

func BenchmarkMatMul40x64x2(b *testing.B) { benchHead(b, 40, 64, 64, 2, MatMulInto) }
func BenchmarkMatMulTransposeA40x64x2(b *testing.B) {
	benchHead(b, 40, 64, 40, 2, MatMulTransposeAInto)
}
func BenchmarkMatMulTransposeA40x64x1(b *testing.B) {
	benchHead(b, 40, 64, 40, 1, MatMulTransposeAInto)
}
