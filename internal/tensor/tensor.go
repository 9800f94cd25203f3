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

// AddInPlace adds b elementwise into t. It is one rowAcc term, t += 1·b,
// which is bit for bit t += b.
func (t *Tensor) AddInPlace(b *Tensor) {
	sameShape(t, b)
	rowAcc(t.Data, unit, b.Data, nil, 1, 0, 0, false, false)
}

// AddRowsInPlace adds every row of b into the 1×b.Cols row vector t, in
// ascending row order: the bias gradient's column sums. It is one rowAcc
// over b's rows with the unit term, which is bit for bit the scalar loop
// t[c] += b[r][c] over ascending r.
func (t *Tensor) AddRowsInPlace(b *Tensor) {
	if t.Rows != 1 || t.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: row sums of %dx%d into %dx%d", b.Rows, b.Cols, t.Rows, t.Cols))
	}
	rowAcc(t.Data, unit, b.Data, nil, b.Rows, 0, b.Cols, false, false)
}

// ScaleInPlace multiplies every element by s, each product rounded once.
// With AVX it runs scaleAVX, one VMULPS per 8 lanes.
func (t *Tensor) ScaleInPlace(s float32) {
	if useAVX {
		scaleAVX(t.Data, s)
		return
	}
	for i := range t.Data {
		t.Data[i] *= s
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

// reshape is Reuse without the clear, for a caller that writes every
// element: t's old contents stay in the storage it reuses.
func reshape(t *Tensor, rows, cols int) *Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return Reuse(t, rows, cols)
	}
	t.Data = t.Data[:rows*cols]
	t.Rows, t.Cols = rows, cols
	return t
}

// GateReLUInto sets out, reshaped to grad's shape, to grad where y (a
// ReLU's output, at least as long) is positive or NaN and to +0 where y is
// not positive (±0 or negative), and returns it. A ReLU's output is +0
// exactly where its input was not positive, so y is its own mask. With AVX
// it is a compare and a mask per 8 lanes, with no branch.
func GateReLUInto(out, grad, y *Tensor) *Tensor {
	out = reshape(out, grad.Rows, grad.Cols)
	gateReLU(out.Data, grad.Data, y.Data)
	return out
}

// rowOf returns row p of the row-major matrix d with m columns.
func rowOf(d []float32, p, m int) []float32 { return d[p*m : (p+1)*m] }

// narrow is the widest output the matmuls with a zero-skip compute as its
// transpose: under one vector's 8 lanes, a row of the output fills too few
// lanes, so the lanes run over the output's other dimension instead.
const narrow = 7

// MatMulInto computes a@b into out, reshaped by Reuse, and returns it. out
// must not share storage with a or b. It is MatMulBiasInto with no bias and
// no activation.
func MatMulInto(out, a, b *Tensor) *Tensor { return MatMulBiasInto(out, a, b, nil, false) }

// MatMulBiasInto computes a@b into out, reshaped by Reuse, then adds bias (a
// 1×b.Cols row vector; nil adds nothing) to every row and, if relu is set,
// replaces every element that is not positive by +0 (NaN passes through).
// It returns out, which must not share storage with a, b or bias.
//
// Row i of out is one rowAcc: it accumulates a[i][p]·b[p] in ascending p,
// skipping zero a[i][p], then takes its bias and activation as it is
// stored. An output at most narrow columns wide over 8 rows or more runs
// as its transpose instead (matMulNarrow). Either way the result is bit
// for bit that of the scalar ikj loop, then a bias pass, then a ReLU pass.
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
	if m <= narrow && n >= 8 && k > 0 {
		return matMulNarrow(out, a, b, bv, relu)
	}
	out = Reuse(out, n, m)
	for i := 0; i < n; i++ {
		rowAcc(rowOf(out.Data, i, m), rowOf(a.Data, i, k), b.Data, bv, k, 1, m, relu, true)
	}
	return out
}

// matMulNarrow is MatMulBiasInto for a narrow output. Row j of outᵀ is one
// laneAcc of b's column j against a pooled copy of aᵀ, its lanes over the
// rows of a: lane i accumulates b[p][j]·a[i][p] in ascending p, passing over
// zero a[i][p], the same terms in the same order as row i's rowAcc. The
// bias and the ReLU follow the full reduction, as outᵀ is copied into out.
func matMulNarrow(out, a, b *Tensor, bias []float32, relu bool) *Tensor {
	n, k, m := a.Rows, a.Cols, b.Cols
	buf := scratch(k*n + m*n)
	at, ot := (*buf)[:k*n], (*buf)[k*n:k*n+m*n]
	transposeInto(at, a.Data, n, k)
	clear(ot)
	for j := 0; j < m; j++ {
		laneAcc(rowOf(ot, j, n), b.Data[j:], at, k, m, n)
	}
	out = reshape(out, n, m)
	for j := 0; j < m; j++ {
		for i, v := range rowOf(ot, j, n) {
			if bias != nil {
				v += bias[j]
			}
			if relu && v <= 0 {
				v = 0
			}
			out.Data[i*m+j] = v
		}
	}
	transposeScratch.Put(buf)
	return out
}

// transposeScratch recycles the matmuls' transposed copies (bᵀ, aᵀ, outᵀ),
// so a transpose costs no allocation per call once the pool holds a large
// enough buffer.
var transposeScratch = sync.Pool{New: func() any { return new([]float32) }}

// scratch returns a pooled buffer of at least n elements; the caller puts
// it back in transposeScratch.
func scratch(n int) *[]float32 {
	buf := transposeScratch.Get().(*[]float32)
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return buf
}

// transposeInto writes the transpose of the rows×cols matrix src into dst.
// With AVX the whole 8×8 blocks go through transposeAVX and the loop below
// copies the edges: the last rows mod 8 rows, and the last cols mod 8
// columns of the others.
func transposeInto(dst, src []float32, rows, cols int) {
	n := rows * cols
	if n == 0 {
		return
	}
	dst, src = dst[:n], src[:n]
	r8, c8 := 0, 0
	if useAVX {
		transposeAVX(dst, src, rows, cols)
		r8, c8 = rows&^7, cols&^7
	}
	for r := 0; r < rows; r++ {
		c := 0
		if r < r8 {
			c = c8
		}
		for ; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}

// MatMulTransposeBInto computes a@bᵀ into out, reshaped by Reuse, and
// returns it. out must not share storage with a or b.
//
// Element (i, j) is the dot product of a's row i and b's row j, summed from
// zero in ascending p with no zero-skip. It is computed as a@(bᵀ), one
// rowAcc per row of a over a pooled copy of bᵀ, which adds the same terms
// to each element in the same order, so the result is the same bit for bit.
func MatMulTransposeBInto(out, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-T %dx%d @ (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	out = Reuse(out, n, m)
	buf := scratch(k * m)
	bt := (*buf)[:k*m]
	transposeInto(bt, b.Data, m, k)
	for i := 0; i < n; i++ {
		rowAcc(rowOf(out.Data, i, m), rowOf(a.Data, i, k), bt, nil, k, 1, m, false, false)
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
// The rows r are taken in blocks of transposeABlock; within a block each
// output row is one rowAcc over the block's rows, reading a's column i
// strided. An output at most narrow columns wide runs as its transpose:
// row j of outᵀ is one laneAcc of b's column j against a's rows, read
// whole, with lanes over i and the zero-skip per lane, into a pooled outᵀ.
// Every element sums the same terms in the same order as an r-outer loop
// with one scalar pass per term.
func MatMulTransposeAInto(out, a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: T-matmul (%dx%d)T @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	rows, k, m := a.Rows, a.Cols, b.Cols
	if m <= narrow && rows > 0 {
		buf := scratch(m * k)
		ot := (*buf)[:m*k]
		clear(ot)
		for j := 0; j < m; j++ {
			laneAcc(rowOf(ot, j, k), b.Data[j:], a.Data, rows, m, k)
		}
		out = reshape(out, k, m)
		transposeInto(out.Data, ot, m, k)
		transposeScratch.Put(buf)
		return out
	}
	out = Reuse(out, k, m)
	for r0 := 0; r0 < rows; r0 += transposeABlock {
		r1 := min(r0+transposeABlock, rows)
		for i := 0; i < k; i++ {
			rowAcc(rowOf(out.Data, i, m), a.Data[r0*k+i:], b.Data[r0*m:], nil, r1-r0, k, m, false, true)
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

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}
