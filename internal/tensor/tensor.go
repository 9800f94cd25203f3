// Package tensor provides a small dense float32 tensor library used by the
// neural-network substrate.
//
// It supports the operations needed to implement and train the policy/value
// networks of DQN, PPO, and IMPALA: elementwise arithmetic, matrix products,
// row reductions, softmax, and deterministic random initialization. All
// randomness flows through an explicit *rand.Rand so training runs are
// reproducible.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Tensor is a dense row-major float32 matrix or vector. A Tensor with
// Rows==1 behaves as a vector of length Cols.
type Tensor struct {
	// Rows and Cols describe the 2-D shape. Data has length Rows*Cols.
	Rows, Cols int
	// Data is the row-major backing storage.
	Data []float32
}

// New returns a zero tensor of the given shape.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (taking ownership) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// At returns element (r, c).
func (t *Tensor) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float32) { t.Data[r*t.Cols+c] = v }

// Row returns a view (shared storage) of row r as a 1×Cols tensor.
func (t *Tensor) Row(r int) *Tensor {
	return &Tensor{Rows: 1, Cols: t.Cols, Data: t.Data[r*t.Cols : (r+1)*t.Cols]}
}

// Zero sets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// XavierInit fills the tensor with the Glorot-uniform distribution for a
// layer with the given fan-in and fan-out.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * limit)
	}
}

func sameShape(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInPlace adds b elementwise into t.
func (t *Tensor) AddInPlace(b *Tensor) {
	sameShape(t, b)
	for i, v := range b.Data {
		t.Data[i] += v
	}
}

// SubInPlace subtracts b elementwise from t.
func (t *Tensor) SubInPlace(b *Tensor) {
	sameShape(t, b)
	for i, v := range b.Data {
		t.Data[i] -= v
	}
}

// MulInPlace multiplies t elementwise by b.
func (t *Tensor) MulInPlace(b *Tensor) {
	sameShape(t, b)
	for i, v := range b.Data {
		t.Data[i] *= v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled adds s*b into t (axpy).
func (t *Tensor) AddScaled(b *Tensor, s float32) {
	sameShape(t, b)
	for i, v := range b.Data {
		t.Data[i] += s * v
	}
}

// AddRowVector adds the 1×Cols vector v to every row of t (bias add).
func (t *Tensor) AddRowVector(v *Tensor) {
	if v.Cols != t.Cols {
		panic(fmt.Sprintf("tensor: row vector length %d != cols %d", v.Cols, t.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		row := t.Data[r*t.Cols : (r+1)*t.Cols]
		for c, b := range v.Data[:t.Cols] {
			row[c] += b
		}
	}
}

// MatMul computes a@b into a new (a.Rows × b.Cols) tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b)
	return out
}

// matMulInto computes out = a@b with an ikj loop order for cache locality:
// row i of out accumulates a[i][p]·b[p] in ascending p, skipping zero
// a[i][p], one axpy per term.
func matMulInto(out, a, b *Tensor) {
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*m : (i+1)*m]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			axpy(orow, b.Data[p*m:(p+1)*m], av)
		}
	}
}

// transposeScratch recycles MatMulTransposeB's copy of bᵀ, so the transpose
// costs no allocation per call once the pool holds a large enough buffer.
var transposeScratch = sync.Pool{New: func() any { return new([]float32) }}

// MatMulTransposeB computes a@bᵀ into a new (a.Rows × b.Rows) tensor.
//
// Element (i, j) is the dot product of a's row i and b's row j, summed from
// zero in ascending p with no zero-skip. It is computed as a@(bᵀ) in ikj
// order through axpy, which adds the same terms to each element in the same
// order, so the result is the same bit for bit.
func MatMulTransposeB(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-T %dx%d @ (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	out := New(n, m)
	buf := transposeScratch.Get().(*[]float32)
	if cap(*buf) < k*m {
		*buf = make([]float32, k*m)
	}
	bt := (*buf)[:k*m]
	for j := 0; j < m; j++ {
		for p, bv := range b.Data[j*k : (j+1)*k] {
			bt[p*m+j] = bv
		}
	}
	for i := 0; i < n; i++ {
		orow := out.Data[i*m : (i+1)*m]
		for p, av := range a.Data[i*k : (i+1)*k] {
			axpy(orow, bt[p*m:(p+1)*m], av)
		}
	}
	transposeScratch.Put(buf)
	return out
}

// MatMulTransposeA computes aᵀ@b into a new (a.Cols × b.Cols) tensor: for
// each row r, out row i accumulates a[r][i]·b[r], skipping zero a[r][i].
func MatMulTransposeA(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: T-matmul (%dx%d)T @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpy(out.Data[i*b.Cols:(i+1)*b.Cols], brow, av)
		}
	}
	return out
}

// Transpose returns a new transposed tensor.
func (t *Tensor) Transpose() *Tensor {
	out := New(t.Cols, t.Rows)
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			out.Data[c*t.Rows+r] = t.Data[r*t.Cols+c]
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float32 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.Data))
}

// ArgMaxRow returns the column index of the maximum element in row r.
func (t *Tensor) ArgMaxRow(r int) int {
	row := t.Data[r*t.Cols : (r+1)*t.Cols]
	best := 0
	for c, v := range row {
		if v > row[best] {
			best = c
		}
	}
	return best
}

// MaxRow returns the maximum element in row r.
func (t *Tensor) MaxRow(r int) float32 {
	return t.Data[r*t.Cols+t.ArgMaxRow(r)]
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (t *Tensor) SoftmaxRows() {
	for r := 0; r < t.Rows; r++ {
		row := t.Data[r*t.Cols : (r+1)*t.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for c, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range row {
			row[c] *= inv
		}
	}
}

// LogSoftmaxRows applies a numerically stable log-softmax to each row in
// place.
func (t *Tensor) LogSoftmaxRows() {
	for r := 0; r < t.Rows; r++ {
		row := t.Data[r*t.Cols : (r+1)*t.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		lse := maxV + float32(math.Log(sum))
		for c := range row {
			row[c] -= lse
		}
	}
}

// ClipInPlace clamps every element into [lo, hi].
func (t *Tensor) ClipInPlace(lo, hi float32) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// GatherRows returns a new tensor whose rows are t's rows at the given
// indices.
func (t *Tensor) GatherRows(indices []int) *Tensor {
	out := New(len(indices), t.Cols)
	for i, idx := range indices {
		copy(out.Data[i*t.Cols:(i+1)*t.Cols], t.Data[idx*t.Cols:(idx+1)*t.Cols])
	}
	return out
}

// OneHot returns an n×classes tensor with row i set at labels[i].
func OneHot(labels []int, classes int) *Tensor {
	out := New(len(labels), classes)
	for i, l := range labels {
		out.Data[i*classes+l] = 1
	}
	return out
}

// Stack concatenates equal-width row vectors into one matrix.
func Stack(rows []*Tensor) *Tensor {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := rows[0].Cols
	out := New(len(rows), cols)
	for i, r := range rows {
		if r.Rows != 1 || r.Cols != cols {
			panic(fmt.Sprintf("tensor: stack row %d has shape %dx%d, want 1x%d", i, r.Rows, r.Cols, cols))
		}
		copy(out.Data[i*cols:(i+1)*cols], r.Data)
	}
	return out
}
