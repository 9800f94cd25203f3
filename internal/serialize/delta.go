// Weight-delta codec: sparse/quantized parameter updates for the
// communication-efficient weight plane (PAPERS.md: Chen et al.,
// "Communication-Efficient Policy Gradient Methods"). The learner encodes a
// delta against the reconstruction a destination already holds; both sides
// apply the identical float32 arithmetic, so chained deltas never drift.
package serialize

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"xingtian/internal/lz4"
	"xingtian/internal/message"
)

// QuantBits values supported by EncodeDelta.
const (
	QuantNone = 0 // exact float32 deltas
	QuantInt8 = 8 // int8 steps with a shared scale
)

// deltaLZ4MinBytes is the smallest entry block worth running through the
// LZ4 block codec: below this the token overhead dominates.
const deltaLZ4MinBytes = 128

// EncodeDelta builds a delta payload that transforms base (at baseVersion)
// into an approximation of cur (at version). With quantBits == QuantInt8 the
// per-parameter change is quantized to int8 steps of a shared scale;
// parameters whose change rounds to zero are dropped, which is where the
// sparsity comes from. The encoder picks sparse or dense layout by encoded
// size. base and cur must have equal length.
func EncodeDelta(base, cur []float32, baseVersion, version int64, quantBits int) (*message.WeightsDeltaPayload, error) {
	return EncodeDeltaInto(base, cur, nil, baseVersion, version, quantBits)
}

// EncodeDeltaInto is EncodeDelta that also writes into recon, when recon is
// non-nil, the vector ApplyDelta(base, d) leaves in a copy of base — bit for
// bit, without allocating it. recon must have len(base) and either be base
// itself, which then advances in place once both sweeps have read it, or
// share no memory with base or cur. On an error recon is left as it was.
// The planner's canonical chain step is this one call.
//
// The int8 path is two sweeps over (base, cur): the largest |Δ|, then the
// quantization, which skips the divide and the round for every |Δ| below
// half a step (the common case: most of a chain step's Δs are the previous
// step's rounding residue). On amd64 both are SSE2 kernels. The
// reconstruction copies base, unless it is base, and applies the payload
// exactly as ApplyDelta does.
func EncodeDeltaInto(base, cur, recon []float32, baseVersion, version int64, quantBits int) (*message.WeightsDeltaPayload, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("serialize: delta over mismatched vectors (%d vs %d): %w", len(base), len(cur), ErrBadPayload)
	}
	if recon != nil && len(recon) != len(cur) {
		return nil, fmt.Errorf("serialize: %d-param reconstruction buffer for a %d-param delta: %w", len(recon), len(cur), ErrBadPayload)
	}
	d := &message.WeightsDeltaPayload{
		Version:     version,
		BaseVersion: baseVersion,
		NumParams:   int32(len(cur)),
	}
	switch quantBits {
	case QuantInt8:
		encodeInt8(d, base, cur)
	case QuantNone:
		encodeExact(d, base, cur)
	default:
		return nil, fmt.Errorf("serialize: unsupported quantBits %d: %w", quantBits, ErrBadPayload)
	}
	if recon != nil {
		if len(recon) > 0 && &recon[0] != &base[0] {
			copy(recon, base)
		}
		addDelta(recon, d) // d was built for this shape: nothing to check
	}
	return d, nil
}

// float32 bit patterns: a non-negative float orders like its bits, and every
// NaN's magnitude bits lie above +Inf's.
const (
	signBit uint32 = 1 << 31
	infBits uint32 = 0x7f800000
)

// int8Gather is encodeInt8's reused scratch: the sweep gathers its kept
// entries here and copies them out at their final length, so a delta body
// owns its entries and allocates no more than it keeps.
var int8Gather = sync.Pool{New: func() any { return new(gatherBuf) }}

type gatherBuf struct {
	idx []uint32
	q   []int8
}

func encodeInt8(d *message.WeightsDeltaPayload, base, cur []float32) {
	maxAbs := maxAbsDelta(base, cur)
	if maxAbs == 0 {
		return // nothing changed: pure version bump
	}
	scale := maxAbs / 127
	d.Scale = scale
	// |Δ| < half (both float32) implies |Δ| ≤ scale/2 exactly, so the float32
	// quotient is at most ½ and rounds to even 0: skipping it is exact, for a
	// subnormal scale too. NaN magnitudes are never below half.
	half := math.Float32bits(scale / 2)
	g := int8Gather.Get().(*gatherBuf)
	defer int8Gather.Put(g)
	idx, q := g.idx[:0], g.q[:0]
	base = base[:len(cur)]
	for i := 0; ; i++ {
		if i = nextAtLeast(base, cur, i, half); i == len(cur) {
			break
		}
		step := int32(math.RoundToEven(float64((cur[i] - base[i]) / scale)))
		if step == 0 {
			continue
		}
		if step > 127 {
			step = 127
		} else if step < -127 {
			step = -127
		}
		idx = append(idx, uint32(i))
		q = append(q, int8(step))
	}
	g.idx, g.q = idx, q
	if len(q) == 0 {
		d.Scale = 0
		return
	}
	// Dense layout wins once more than half the entries are non-zero
	// (sparse pays ≥1 varint byte per 1-byte entry).
	if len(q) > len(cur)/2 {
		dq := make([]int8, len(cur))
		for j, i := range idx {
			dq[i] = q[j]
		}
		d.Q = dq
	} else {
		d.Indices = slices.Clone(idx)
		d.Q = slices.Clone(q)
	}
}

// nextAtLeast returns the first index from i on whose |cur−base| magnitude
// bits are at least half, or len(cur). skipBelow walks the blocks; the loop
// here checks the lane it stops at and the tail it leaves.
func nextAtLeast(base, cur []float32, i int, half uint32) int {
	base = base[:len(cur)]
	for i = skipBelow(base, cur, i, half); i < len(cur); i++ {
		if math.Float32bits(cur[i]-base[i])&^signBit >= half {
			return i
		}
	}
	return i
}

// maxAbsDelta returns the largest |cur[i]−base[i]|, NaNs ignored. The sweep
// compares magnitude bits, so it has no data-dependent branch: maxAbsBits
// takes the 16-lane blocks and the loop here the tail. A NaN shows up as a
// maximum above +Inf and costs one more, filtering sweep.
func maxAbsDelta(base, cur []float32) float32 {
	base = base[:len(cur)]
	n := len(cur) &^ 15
	m := maxAbsBits(base[:n], cur[:n])
	for i := n; i < len(cur); i++ {
		m = max(m, math.Float32bits(cur[i]-base[i])&^signBit)
	}
	if m > infBits {
		m = 0
		for i, c := range cur {
			if a := math.Float32bits(c-base[i]) &^ signBit; a <= infBits {
				m = max(m, a)
			}
		}
	}
	return math.Float32frombits(m)
}

func encodeExact(d *message.WeightsDeltaPayload, base, cur []float32) {
	idx := make([]uint32, 0, len(cur)/8)
	vals := make([]float32, 0, len(cur)/8)
	base = base[:len(cur)]
	for i, c := range cur {
		if c != base[i] {
			idx = append(idx, uint32(i))
			vals = append(vals, c-base[i])
		}
	}
	if len(vals) == 0 {
		return
	}
	// Sparse entries cost ~5 bytes vs 4 dense; dense wins above 4/5.
	if len(vals) > len(cur)*4/5 {
		dv := make([]float32, len(cur))
		for j, i := range idx {
			dv[i] = vals[j]
		}
		d.Values = dv
	} else {
		d.Indices = idx
		d.Values = vals
	}
}

// ApplyDelta advances base by d in place and returns it, so a destination
// chains deltas on its own vector without allocating. The whole payload is
// validated before the first write: on an error base is left bit-identical
// and the result is nil. Callers that still need the old vector apply to a
// copy. Version bookkeeping (d.BaseVersion matching the caller's current
// version) is the caller's responsibility — this function validates shape
// only.
func ApplyDelta(base []float32, d *message.WeightsDeltaPayload) ([]float32, error) {
	if err := checkDelta(len(base), d); err != nil {
		return nil, err
	}
	addDelta(base, d)
	return base, nil
}

// checkDelta accepts d for an n-parameter vector when its parameter count
// matches and its entries fit: a sparse layout needs one index per entry,
// every one below n; a dense layout needs n entries.
func checkDelta(n int, d *message.WeightsDeltaPayload) error {
	if int(d.NumParams) != n {
		return fmt.Errorf("serialize: delta for %d params applied to %d: %w", d.NumParams, n, ErrBadPayload)
	}
	switch {
	case d.Entries() == 0:
		// Pure version bump.
	case d.Indices != nil:
		if len(d.Indices) != d.Entries() {
			return fmt.Errorf("serialize: %d indices for %d entries: %w", len(d.Indices), d.Entries(), ErrBadPayload)
		}
		var hi uint32
		for _, i := range d.Indices {
			hi = max(hi, i)
		}
		if uint64(hi) >= uint64(n) {
			return fmt.Errorf("serialize: delta index %d out of range: %w", hi, ErrBadPayload)
		}
	default: // dense
		if d.Entries() != n {
			return fmt.Errorf("serialize: dense delta has %d entries for %d params: %w", d.Entries(), n, ErrBadPayload)
		}
	}
	return nil
}

// addDelta advances out in place by a payload checkDelta accepts for it: the
// sparse layout touches only its entries, the dense layout adds every entry
// (zeros too, so −0 becomes +0 exactly as on every destination).
func addDelta(out []float32, d *message.WeightsDeltaPayload) {
	switch {
	case d.Entries() == 0:
		// Pure version bump.
	case d.Indices != nil:
		if d.Scale > 0 {
			for j, i := range d.Indices {
				out[i] += d.Scale * float32(d.Q[j])
			}
		} else {
			for j, i := range d.Indices {
				out[i] += d.Values[j]
			}
		}
	default: // dense
		if d.Scale > 0 {
			for i, q := range d.Q {
				out[i] += d.Scale * float32(q)
			}
		} else {
			for i, v := range d.Values {
				out[i] += v
			}
		}
	}
}

// RelDeltaNorm returns ‖cur−base‖₂ / max(‖base‖₂, ε): the relative movement
// of the parameter vector, used by the planner's adaptive skip threshold.
func RelDeltaNorm(base, cur []float32) float64 {
	if len(base) != len(cur) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range cur {
		dv := float64(cur[i]) - float64(base[i])
		num += dv * dv
		den += float64(base[i]) * float64(base[i])
	}
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Sqrt(num / den)
}

// Wire encoding -----------------------------------------------------------------

// Delta flag bits.
const (
	deltaFlagSparse byte = 1 << 0
	deltaFlagLZ4    byte = 1 << 1
	deltaFlagQuant  byte = 1 << 2
)

func appendWeightsDelta(out []byte, d *message.WeightsDeltaPayload) []byte {
	out = append(out, tagWeightsDelta)
	out = putU64(out, uint64(d.Version))
	out = putU64(out, uint64(d.BaseVersion))
	out = putU32(out, uint32(d.NumParams))
	out = putF32(out, d.Scale)

	var flags byte
	if d.Indices != nil {
		flags |= deltaFlagSparse
	}
	if d.Scale > 0 {
		flags |= deltaFlagQuant
	}

	// Entry block: count, varint index gaps (sparse), then entry bytes. It
	// and its compression scratch are pooled, sized so neither grows (the
	// deferred frees see their final arrays), and copied into out.
	entryBytes := 4
	if d.Scale > 0 {
		entryBytes = 1
	}
	if d.Indices != nil {
		entryBytes += binary.MaxVarintLen32
	}
	block := GetBuf(4 + entryBytes*d.Entries())
	defer FreeBuf(block)
	block = putU32(block, uint32(d.Entries()))
	if d.Indices != nil {
		prev := uint64(0)
		for j, i := range d.Indices {
			v := uint64(i)
			if j == 0 {
				block = binary.AppendUvarint(block, v)
			} else {
				block = binary.AppendUvarint(block, v-prev)
			}
			prev = v
		}
	}
	if d.Scale > 0 {
		for _, q := range d.Q {
			block = append(block, byte(q))
		}
	} else {
		for _, v := range d.Values {
			block = putF32(block, v)
		}
	}

	// LZ4 the block when it shrinks — the fixed block codec, applied inside
	// the payload because deltas rarely reach the outer compressor threshold.
	if len(block) >= deltaLZ4MinBytes {
		comp := lz4.Compress(GetBuf(lz4.CompressBound(len(block))), block)
		defer FreeBuf(comp)
		if len(comp) < len(block) {
			out = append(out, flags|deltaFlagLZ4)
			out = putU32(out, uint32(len(block)))
			return putBytes(out, comp)
		}
	}
	out = append(out, flags)
	return putBytes(out, block)
}

// unmarshalWeightsDelta reads the entry block as a view of data, or
// decompresses it into pooled scratch freed before it returns; either way
// the payload's entries are copied out, so nothing it returns aliases data
// or the pool.
func unmarshalWeightsDelta(data []byte) (*message.WeightsDeltaPayload, error) {
	r := &reader{data: data}
	d := &message.WeightsDeltaPayload{
		Version:     int64(r.u64()),
		BaseVersion: int64(r.u64()),
		NumParams:   int32(r.u32()),
		Scale:       r.f32(),
	}
	flags := r.byte()
	var block []byte
	if flags&deltaFlagLZ4 != 0 {
		rawLen := int(r.u32())
		comp := r.view()
		if r.err != nil {
			return nil, r.err
		}
		// An LZ4 sequence decodes to fewer than 255 bytes per byte it takes
		// (a match-length byte adds at most 255), so a larger rawLen could
		// only fail to decompress: refuse it before allocating for it.
		if rawLen < 0 || int64(rawLen) > 4+9*int64(uint32(d.NumParams)) || int64(rawLen) > 255*int64(len(comp)) {
			return nil, fmt.Errorf("implausible delta block size %d: %w", rawLen, ErrBadPayload)
		}
		scratch := GetBuf(rawLen)
		defer FreeBuf(scratch)
		// Decompress fills all rawLen bytes or fails, so no stale pool
		// contents survive into the block.
		block = scratch[:rawLen]
		if _, err := lz4.Decompress(block, comp); err != nil {
			return nil, fmt.Errorf("delta block: %w", err)
		}
	} else {
		block = r.view()
		if r.err != nil {
			return nil, r.err
		}
	}

	br := &reader{data: block}
	entries := int(br.u32())
	if br.err != nil {
		return nil, br.err
	}
	if entries < 0 || entries > int(uint32(d.NumParams)) || d.NumParams < 0 {
		return nil, fmt.Errorf("delta entry count %d for %d params: %w", entries, d.NumParams, ErrBadPayload)
	}
	// Every entry takes at least one byte of the block: a larger count is a
	// truncated block, refused before anything is allocated for it.
	if entries > len(block)-br.pos {
		return nil, fmt.Errorf("truncated delta entries: %w", ErrBadPayload)
	}
	if flags&deltaFlagSparse != 0 {
		d.Indices = make([]uint32, entries)
		pos := uint64(0)
		for j := 0; j < entries; j++ {
			gap, n := binary.Uvarint(block[br.pos:])
			if n <= 0 {
				return nil, fmt.Errorf("truncated delta index stream: %w", ErrBadPayload)
			}
			br.pos += n
			pos += gap
			if pos >= uint64(uint32(d.NumParams)) {
				return nil, fmt.Errorf("delta index %d out of range: %w", pos, ErrBadPayload)
			}
			if j > 0 && gap == 0 {
				return nil, fmt.Errorf("non-increasing delta index stream: %w", ErrBadPayload)
			}
			d.Indices[j] = uint32(pos)
		}
	} else if entries != 0 && entries != int(d.NumParams) {
		return nil, fmt.Errorf("dense delta has %d entries for %d params: %w", entries, d.NumParams, ErrBadPayload)
	}
	if flags&deltaFlagQuant != 0 {
		if d.Scale <= 0 || math.IsNaN(float64(d.Scale)) || math.IsInf(float64(d.Scale), 0) {
			return nil, fmt.Errorf("quantized delta with scale %v: %w", d.Scale, ErrBadPayload)
		}
		if br.pos+entries > len(block) {
			return nil, fmt.Errorf("truncated delta entries: %w", ErrBadPayload)
		}
		src := block[br.pos : br.pos+entries]
		q := make([]int8, len(src))
		for j, b := range src {
			q[j] = int8(b)
		}
		d.Q = q
		br.pos += entries
	} else {
		d.Scale = 0
		if entries > (len(block)-br.pos)/4 {
			return nil, fmt.Errorf("truncated delta entries: %w", ErrBadPayload)
		}
		if entries > 0 {
			d.Values = make([]float32, entries)
			for j := range d.Values {
				d.Values[j] = math.Float32frombits(binary.LittleEndian.Uint32(block[br.pos:]))
				br.pos += 4
			}
		}
	}
	if br.pos != len(block) {
		return nil, fmt.Errorf("delta block has %d trailing bytes: %w", len(block)-br.pos, ErrBadPayload)
	}
	// An empty sparse layout is canonicalized to the empty payload.
	if entries == 0 {
		d.Indices = nil
		d.Q = nil
		d.Values = nil
	}
	return d, nil
}
