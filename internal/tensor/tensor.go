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

// Randn fills the tensor with N(0, std²) samples from rng. Only tests call
// it: the nn gradient checks and workspace tests and the tensor kernel tests
// and benchmarks draw their operands with it.
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

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
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

// Reuse returns t reshaped to rows×cols with every element zero, reusing
// t's storage when its capacity suffices. A nil t gets a new tensor. It is
// how a caller keeps one workspace tensor across calls whose shapes vary.
func Reuse(t *Tensor, rows, cols int) *Tensor {
	if t == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	if n := rows * cols; cap(t.Data) >= n {
		t.Data = t.Data[:n]
		clear(t.Data)
	} else {
		t.Data = make([]float32, n)
	}
	t.Rows, t.Cols = rows, cols
	return t
}

// rowOf returns row p of the row-major matrix d with m columns.
func rowOf(d []float32, p, m int) []float32 { return d[p*m : (p+1)*m] }

// narrowCols is the widest output the matmuls accumulate with a scalar
// loop instead of the axpy kernels: for one to four lanes (a policy or value
// head) a kernel call costs more than the lanes it adds.
const narrowCols = 4

// MatMulInto computes a@b into out, reshaped by Reuse, and returns it. out
// must not share storage with a or b. It is MatMulBiasInto with no bias and
// no activation.
func MatMulInto(out, a, b *Tensor) *Tensor { return MatMulBiasInto(out, a, b, nil, false) }

// MatMulBiasInto computes a@b into out, reshaped by Reuse, then adds bias (a
// 1×b.Cols row vector; nil adds nothing) to every row and, if relu is set,
// replaces every element that is not positive by +0 (NaN passes through).
// It returns out, which must not share storage with a, b or bias.
//
// The products run in ikj order for cache locality: row i of out
// accumulates a[i][p]·b[p] in ascending p, skipping zero a[i][p]. The
// non-zero terms go to axpy4 four at a time and the last one to three to
// axpy, so every element sums the same terms in the same order as one axpy
// per term; outputs at most narrowCols wide take the same terms through a
// scalar loop. Each row then takes its bias and activation in the same pass,
// while it is in cache: the result is bit for bit that of MatMulInto, then
// AddRowVector, then a ReLU.
func MatMulBiasInto(out, a, b, bias *Tensor, relu bool) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	var bv []float32
	if bias != nil {
		if bias.Cols != m {
			panic(fmt.Sprintf("tensor: row vector length %d != cols %d", bias.Cols, m))
		}
		bv = bias.Data[:m]
	}
	out = Reuse(out, n, m)
	for i := 0; i < n; i++ {
		arow := rowOf(a.Data, i, k)
		orow := rowOf(out.Data, i, m)
		if m <= narrowCols {
			for p, av := range arow {
				if av == 0 {
					continue
				}
				for j, x := range rowOf(b.Data, p, m) {
					orow[j] += av * x
				}
			}
		} else {
			var ps [4]int
			g := 0
			for p, av := range arow {
				if av == 0 {
					continue
				}
				ps[g] = p
				if g++; g == 4 {
					axpy4(orow, rowOf(b.Data, ps[0], m), rowOf(b.Data, ps[1], m), rowOf(b.Data, ps[2], m), rowOf(b.Data, ps[3], m),
						arow[ps[0]], arow[ps[1]], arow[ps[2]], arow[ps[3]])
					g = 0
				}
			}
			for _, p := range ps[:g] {
				axpy(orow, rowOf(b.Data, p, m), arow[p])
			}
		}
		biasReLU(orow, bv, relu)
	}
	return out
}

// biasReLU adds bias (when not nil) to row and then, if relu is set, sets
// every element that is not positive to +0, in one pass: each element is
// rounded once by the add, as AddRowVector rounds it, and -0, negatives and
// zeros become +0 while NaN stays, as the ReLU layer has always done.
func biasReLU(row, bias []float32, relu bool) {
	switch {
	case bias != nil && relu:
		bias = bias[:len(row)]
		for j, v := range row {
			if v += bias[j]; v <= 0 {
				v = 0
			}
			row[j] = v
		}
	case bias != nil:
		bias = bias[:len(row)]
		for j := range row {
			row[j] += bias[j]
		}
	case relu:
		for j, v := range row {
			if v <= 0 {
				row[j] = 0
			}
		}
	}
}

// transposeScratch recycles MatMulTransposeBInto's copy of bᵀ, so the
// transpose costs no allocation per call once the pool holds a large enough
// buffer.
var transposeScratch = sync.Pool{New: func() any { return new([]float32) }}

// MatMulTransposeBInto computes a@bᵀ into out, reshaped by Reuse, and
// returns it. out must not share storage with a or b.
//
// Element (i, j) is the dot product of a's row i and b's row j, summed from
// zero in ascending p with no zero-skip. It is computed as a@(bᵀ) in ikj
// order, four consecutive p per axpy4 and the last one to three through
// axpy, which adds the same terms to each element in the same order, so the
// result is the same bit for bit.
func MatMulTransposeBInto(out, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-T %dx%d @ (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	out = Reuse(out, n, m)
	buf := transposeScratch.Get().(*[]float32)
	if cap(*buf) < k*m {
		*buf = make([]float32, k*m)
	}
	bt := (*buf)[:k*m]
	for j := 0; j < m; j++ {
		for p, bv := range rowOf(b.Data, j, k) {
			bt[p*m+j] = bv
		}
	}
	for i := 0; i < n; i++ {
		orow := rowOf(out.Data, i, m)
		arow := rowOf(a.Data, i, k)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4(orow, rowOf(bt, p, m), rowOf(bt, p+1, m), rowOf(bt, p+2, m), rowOf(bt, p+3, m),
				arow[p], arow[p+1], arow[p+2], arow[p+3])
		}
		for ; p < k; p++ {
			axpy(orow, rowOf(bt, p, m), arow[p])
		}
	}
	transposeScratch.Put(buf)
	return out
}

// transposeABlock is how many rows of a and b MatMulTransposeAInto takes
// per sweep over the output: the block's column reads of a and its rows of
// b stay in L1 while every output row takes its terms from them. Unblocked,
// a 500-row batch through a 1764-wide input layer ran ≈ 1.4× slower than
// the r-outer loop; at 32 it is faster.
const transposeABlock = 32

// MatMulTransposeAInto computes aᵀ@b into out, reshaped by Reuse, and
// returns it. out must not share storage with a or b.
//
// Out row i accumulates a[r][i]·b[r] in ascending r, skipping zero a[r][i].
// The rows r are taken in blocks of transposeABlock; within a block the loop
// runs over i outside and r inside, so each output row takes the block's
// terms in one go: the non-zero ones four at a time through axpy4 and the
// last one to three through axpy. Outputs at most narrowCols wide run r
// outside and i inside with a scalar loop, the order of one axpy per term.
// Every element sums the same terms in the same order as an r-outer loop
// with one axpy per term.
func MatMulTransposeAInto(out, a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: T-matmul (%dx%d)T @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	rows, k, m := a.Rows, a.Cols, b.Cols
	out = Reuse(out, k, m)
	if m <= narrowCols {
		for r := 0; r < rows; r++ {
			brow := rowOf(b.Data, r, m)
			for i, av := range rowOf(a.Data, r, k) {
				if av == 0 {
					continue
				}
				orow := rowOf(out.Data, i, m)
				for j, x := range brow {
					orow[j] += av * x
				}
			}
		}
		return out
	}
	for r0 := 0; r0 < rows; r0 += transposeABlock {
		r1 := min(r0+transposeABlock, rows)
		for i := 0; i < k; i++ {
			orow := rowOf(out.Data, i, m)
			var rs [4]int
			var as [4]float32
			g := 0
			for r := r0; r < r1; r++ {
				av := a.Data[r*k+i]
				if av == 0 {
					continue
				}
				rs[g], as[g] = r, av
				if g++; g == 4 {
					axpy4(orow, rowOf(b.Data, rs[0], m), rowOf(b.Data, rs[1], m), rowOf(b.Data, rs[2], m), rowOf(b.Data, rs[3], m),
						as[0], as[1], as[2], as[3])
					g = 0
				}
			}
			for j, r := range rs[:g] {
				axpy(orow, rowOf(b.Data, r, m), as[j])
			}
		}
	}
	return out
}

// Transpose returns a new transposed tensor. Only tests call it:
// TestKernelsMatchReferenceGroupRemainders builds column patterns with it,
// and the MatMulTranspose tests use it as their explicit reference.
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
