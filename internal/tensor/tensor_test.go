package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 3, make([]float32, 5))
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row.Cols != 3 || row.Data[2] != 7 {
		t.Fatalf("Row(1) = %+v", row)
	}
	row.Data[0] = 9 // view shares storage
	if m.At(1, 0) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	c := m.Clone()
	c.Data[0] = 100
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.ScaleInPlace(0.5)
	if a.Data[1] != 11 {
		t.Fatalf("ScaleInPlace: %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddInPlace with mismatched shapes did not panic")
		}
	}()
	New(1, 3).AddInPlace(New(2, 3))
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMulInto(nil, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposeBMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 6)
	b := New(5, 6)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got := MatMulTransposeBInto(nil, a, b)
	want := MatMulInto(nil, a, b.Transpose())
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulTransposeB[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransposeAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 4)
	b := New(5, 3)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got := MatMulTransposeAInto(nil, a, b)
	want := MatMulInto(nil, a.Transpose(), b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulTransposeA[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(3, 7)
	m.Randn(rng, 1)
	tt := m.Transpose().Transpose()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("Transpose twice != identity")
		}
	}
}

func TestSumMeanNorm(t *testing.T) {
	m := FromSlice(1, 4, []float32{3, 4, 0, 0})
	if m.Sum() != 7 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 1.75 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if !almostEqual(m.Norm(), 5, 1e-6) {
		t.Fatalf("Norm = %v, want 5", m.Norm())
	}
	empty := New(0, 0)
	if empty.Mean() != 0 {
		t.Fatal("Mean of empty != 0")
	}
}

func TestArgMaxMaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, 9, 0, 3})
	if m.ArgMaxRow(0) != 1 || m.ArgMaxRow(1) != 0 {
		t.Fatalf("ArgMaxRow = %d,%d", m.ArgMaxRow(0), m.ArgMaxRow(1))
	}
	if m.MaxRow(1) != 9 {
		t.Fatalf("MaxRow(1) = %v", m.MaxRow(1))
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 1000, 1000, 1000})
	m.SoftmaxRows()
	var sum float32
	for c := 0; c < 3; c++ {
		sum += m.At(0, c)
	}
	if !almostEqual(sum, 1, 1e-5) {
		t.Fatalf("softmax row 0 sums to %v", sum)
	}
	if m.At(0, 2) <= m.At(0, 1) || m.At(0, 1) <= m.At(0, 0) {
		t.Fatal("softmax not monotone")
	}
	// Large equal logits must not produce NaN and must be uniform.
	for c := 0; c < 3; c++ {
		if !almostEqual(m.At(1, c), 1.0/3, 1e-5) {
			t.Fatalf("softmax of equal large logits = %v", m.At(1, c))
		}
	}
}

func TestLogSoftmaxConsistentWithSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(3, 5)
	a.Randn(rng, 2)
	b := a.Clone()
	a.SoftmaxRows()
	b.LogSoftmaxRows()
	for i := range a.Data {
		if !almostEqual(float32(math.Log(float64(a.Data[i]))), b.Data[i], 1e-4) {
			t.Fatalf("log(softmax) != logsoftmax at %d: %v vs %v", i, math.Log(float64(a.Data[i])), b.Data[i])
		}
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(64, 64)
	m.XavierInit(rng, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier sample %v outside ±%v", v, limit)
		}
	}
	if m.Norm() == 0 {
		t.Fatal("Xavier init produced all zeros")
	}
}

// TestPropertyMatMulDistributes: A@(B+C) == A@B + A@C within tolerance.
func TestPropertyMatMulDistributes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(3, 4), New(4, 2), New(4, 2)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		c.Randn(rng, 1)
		bc := b.Clone()
		bc.AddInPlace(c)
		left := MatMulInto(nil, a, bc)
		right := MatMulInto(nil, a, b)
		right.AddInPlace(MatMulInto(nil, a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySoftmaxRowsSumToOne for arbitrary logits.
func TestPropertySoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(4, 6)
		m.Randn(rng, 10)
		m.SoftmaxRows()
		for r := 0; r < m.Rows; r++ {
			var sum float32
			for c := 0; c < m.Cols; c++ {
				v := m.At(r, c)
				if v < 0 || math.IsNaN(float64(v)) {
					return false
				}
				sum += v
			}
			if !almostEqual(sum, 1, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := New(128, 128)
	y := New(128, 128)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MatMulInto(nil, x, y)
	}
}
