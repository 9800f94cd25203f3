package serialize

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xingtian/internal/message"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// perturb returns base with a fraction of entries nudged, mimicking one
// optimizer step's worth of parameter movement.
func perturb(rng *rand.Rand, base []float32, frac, mag float64) []float32 {
	out := append([]float32(nil), base...)
	for i := range out {
		if rng.Float64() < frac {
			out[i] += float32(rng.NormFloat64() * mag)
		}
	}
	return out
}

func TestDeltaExactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := randVec(rng, 500)
	cur := perturb(rng, base, 0.1, 0.01)
	d, err := EncodeDelta(base, cur, 3, 4, QuantNone)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	if d.Version != 4 || d.BaseVersion != 3 || int(d.NumParams) != len(base) {
		t.Fatalf("delta header = %+v", d)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for i := range cur {
		// base + (cur-base) in float32: reconstruction must match what the
		// same arithmetic produces, and for exact deltas that is cur itself
		// up to one rounding of the subtraction/addition pair.
		if math.Abs(float64(got[i]-cur[i])) > 1e-6 {
			t.Fatalf("exact delta mismatch at %d: %v vs %v", i, got[i], cur[i])
		}
	}
}

func TestDeltaQuantizedBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := randVec(rng, 1000)
	cur := perturb(rng, base, 0.3, 0.05)
	d, err := EncodeDelta(base, cur, 7, 8, QuantInt8)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	// Quantization error is bounded by one step (scale) per parameter.
	maxErr := float64(d.Scale) * 1.01
	if d.Scale == 0 {
		t.Fatal("expected a non-empty quantized delta")
	}
	for i := range cur {
		if math.Abs(float64(got[i]-cur[i])) > maxErr {
			t.Fatalf("quantized delta error %v at %d exceeds scale %v", got[i]-cur[i], i, d.Scale)
		}
	}
}

func TestDeltaEmptyVersionBump(t *testing.T) {
	base := []float32{1, 2, 3}
	d, err := EncodeDelta(base, base, 5, 6, QuantInt8)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	if d.Entries() != 0 {
		t.Fatalf("identical vectors produced %d entries", d.Entries())
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatal("empty delta mutated weights")
		}
	}
}

func TestDeltaShapeMismatchRejected(t *testing.T) {
	if _, err := EncodeDelta([]float32{1}, []float32{1, 2}, 0, 1, QuantInt8); err == nil {
		t.Fatal("mismatched encode did not error")
	}
	d := &message.WeightsDeltaPayload{NumParams: 4}
	if _, err := ApplyDelta([]float32{1, 2}, d); err == nil {
		t.Fatal("mismatched apply did not error")
	}
	if _, err := EncodeDelta([]float32{1}, []float32{2}, 0, 1, 16); err == nil {
		t.Fatal("unsupported quantBits did not error")
	}
}

func TestDeltaWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		frac  float64
		n     int
		quant int
	}{
		{"sparse-int8", 0.05, 2000, QuantInt8},
		{"dense-int8", 0.95, 300, QuantInt8},
		{"sparse-exact", 0.05, 2000, QuantNone},
		{"dense-exact", 0.95, 300, QuantNone},
		{"empty", 0, 64, QuantInt8},
	} {
		base := randVec(rng, tc.n)
		cur := perturb(rng, base, tc.frac, 0.02)
		d, err := EncodeDelta(base, cur, 1, 2, tc.quant)
		if err != nil {
			t.Fatalf("%s: EncodeDelta: %v", tc.name, err)
		}
		raw, err := Marshal(d)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		back, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", tc.name, err)
		}
		d2, ok := back.(*message.WeightsDeltaPayload)
		if !ok {
			t.Fatalf("%s: Unmarshal returned %T", tc.name, back)
		}
		// The wire form must reconstruct the identical vector.
		want, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("%s: ApplyDelta(sent): %v", tc.name, err)
		}
		got, err := ApplyDelta(base, d2)
		if err != nil {
			t.Fatalf("%s: ApplyDelta(received): %v", tc.name, err)
		}
		if d2.Version != d.Version || d2.BaseVersion != d.BaseVersion || d2.NumParams != d.NumParams {
			t.Fatalf("%s: header mismatch: %+v vs %+v", tc.name, d2, d)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: reconstruction diverges at %d: %v vs %v", tc.name, i, want[i], got[i])
			}
		}
	}
}

func TestDeltaWireCompactSparse(t *testing.T) {
	// A 1%-changed int8 delta must encode far smaller than the dense payload.
	rng := rand.New(rand.NewSource(4))
	base := randVec(rng, 100_000)
	cur := perturb(rng, base, 0.01, 0.02)
	d, err := EncodeDelta(base, cur, 1, 2, QuantInt8)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	raw, err := Marshal(d)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dense, err := Marshal(&message.WeightsPayload{Version: 2, Data: cur})
	if err != nil {
		t.Fatalf("Marshal dense: %v", err)
	}
	if len(raw)*10 > len(dense) {
		t.Fatalf("sparse delta %d bytes vs dense %d: want >10x smaller", len(raw), len(dense))
	}
}

// TestPropertyDeltaRoundTrip: for arbitrary base/update pairs, encode→
// marshal→unmarshal→apply equals encode→apply — the wire never changes what
// a delta does.
func TestPropertyDeltaRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, fracN uint8, quant bool) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%3000 + 1
		base := randVec(rng, size)
		cur := perturb(rng, base, float64(fracN%101)/100, 0.05)
		qb := QuantNone
		if quant {
			qb = QuantInt8
		}
		d, err := EncodeDelta(base, cur, 10, 11, qb)
		if err != nil {
			return false
		}
		raw, err := Marshal(d)
		if err != nil {
			return false
		}
		back, err := Unmarshal(raw)
		if err != nil {
			return false
		}
		d2 := back.(*message.WeightsDeltaPayload)
		want, err1 := ApplyDelta(base, d)
		got, err2 := ApplyDelta(base, d2)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelDeltaNorm(t *testing.T) {
	base := []float32{3, 4}
	if got := RelDeltaNorm(base, base); got != 0 {
		t.Fatalf("norm of identical vectors = %v", got)
	}
	cur := []float32{3, 4.5}
	got := RelDeltaNorm(base, cur)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("RelDeltaNorm = %v, want 0.1", got)
	}
	if !math.IsInf(RelDeltaNorm(base, []float32{1}), 1) {
		t.Fatal("mismatched lengths should give +Inf")
	}
}

// FuzzDeltaApply: arbitrary bytes through the delta unmarshaller either fail
// cleanly or produce a payload that applies within bounds — never a panic or
// an out-of-range write.
func FuzzDeltaApply(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	base := randVec(rng, 64)
	cur := perturb(rng, base, 0.3, 0.1)
	if d, err := EncodeDelta(base, cur, 1, 2, QuantInt8); err == nil {
		if raw, err := Marshal(d); err == nil {
			f.Add(raw[1:]) // strip the tag; the fuzz body re-adds it
		}
	}
	if d, err := EncodeDelta(base, cur, 1, 2, QuantNone); err == nil {
		if raw, err := Marshal(d); err == nil {
			f.Add(raw[1:])
		}
	}
	f.Add([]byte{6})
	f.Add(bytes.Repeat([]byte{6, 0xFF}, 20))
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := Unmarshal(append([]byte{6}, raw...))
		if err != nil {
			return
		}
		d, ok := body.(*message.WeightsDeltaPayload)
		if !ok {
			return
		}
		vec := make([]float32, int(uint32(d.NumParams))%4096)
		_, _ = ApplyDelta(vec, d)
	})
}

// floatBytes and bytesFloats convert between a vector and the fuzzer's bytes,
// so any float32 bit pattern (−0, NaN, ±Inf, subnormals) can be a parameter.
func floatBytes(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
	}
	return out
}

func bytesFloats(b []byte, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

func float32Bits(v []float32) []uint32 {
	if v == nil {
		return nil
	}
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// checkKernel asserts EncodeDeltaInto builds the oracle's payload — Values
// and Scale compared by bits, so NaN entries count as equal to themselves —
// and that both its recon and ApplyDelta are bit-identical to the oracle's
// reconstruction. It returns the kernel's recon.
func checkKernel(t *testing.T, label string, base, cur []float32, quant int) []float32 {
	t.Helper()
	want, err := encodeDeltaOracle(base, cur, 1, 2, quant)
	if err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	recon := make([]float32, len(base))
	for i := range recon {
		recon[i] = float32(math.NaN()) // stale buffer contents must not matter
	}
	got, err := EncodeDeltaInto(base, cur, recon, 1, 2, quant)
	if err != nil {
		t.Fatalf("EncodeDeltaInto: %v", err)
	}
	wantVals, gotVals := float32Bits(want.Values), float32Bits(got.Values)
	w, g := *want, *got
	w.Values, g.Values = nil, nil
	if !reflect.DeepEqual(w, g) || !reflect.DeepEqual(wantVals, gotVals) || math.Float32bits(w.Scale) != math.Float32bits(g.Scale) {
		t.Fatalf("%s, quant %d: payload differs from the oracle:\n got %+v\nwant %+v", label, quant, got, want)
	}
	wantRecon, err := applyDeltaOracle(base, want)
	if err != nil {
		t.Fatalf("oracle apply: %v", err)
	}
	applied, err := ApplyDelta(base, got)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for i := range wantRecon {
		wb := math.Float32bits(wantRecon[i])
		if math.Float32bits(recon[i]) != wb || math.Float32bits(applied[i]) != wb {
			t.Fatalf("%s, quant %d: parameter %d reconstructs to %#x (recon) / %#x (ApplyDelta), oracle %#x",
				label, quant, i, math.Float32bits(recon[i]), math.Float32bits(applied[i]), wb)
		}
	}
	return recon
}

// FuzzEncodeDeltaInto: for any pair of vectors, in int8 and exact modes, the
// two-sweep kernel builds the oracle's payload and reconstruction bit for
// bit.
func FuzzEncodeDeltaInto(f *testing.F) {
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	tiny := math.Float32frombits(1) // smallest subnormal
	add := func(base, cur []float32) { f.Add(floatBytes(base), floatBytes(cur)) }

	// −0 parameters: unchanged (sparse), and under a dense-layout delta
	// where −0 + (+0) must come out +0.
	add([]float32{negZero, 1, negZero, 2}, []float32{negZero, 1.5, 0, 2})
	add([]float32{negZero, negZero, negZero, negZero, negZero}, []float32{1, 2, 3, negZero, 0})
	// NaN and ±Inf deltas, alone and beside finite ones.
	add([]float32{0, 1, 2, 3}, []float32{nan, 1.25, inf, 3})
	add([]float32{0, 1, 2, 3}, []float32{0, -inf, 2, 3.5})
	add([]float32{inf, 1, 2}, []float32{inf, 1, 2})
	// A subnormal scale, and one that underflows to zero.
	add([]float32{0, 0, 0, 0}, []float32{1e-37, 3e-38, -1e-39, 0})
	add([]float32{0, 0, 0}, []float32{tiny, 0, -tiny})
	// All-zero delta.
	add([]float32{1, 2, 3, 4}, []float32{1, 2, 3, 4})
	// More than half the entries non-zero: dense layout.
	add([]float32{0, 0, 0, 0, 0, 0}, []float32{0.1, -0.2, 0.3, 0.4, 0, -0.6})
	// |Δ| exactly at scale/2 (scale = 1), and at odd/even half steps.
	add([]float32{0, 0, 0, 0, 0, 0, 0}, []float32{127, 0.5, -0.5, 1.5, 2.5, -2.5, 0.49999997})

	f.Fuzz(func(t *testing.T, rawBase, rawCur []byte) {
		n := min(len(rawBase), len(rawCur), 4*4096) / 4
		base, cur := bytesFloats(rawBase, n), bytesFloats(rawCur, n)
		checkKernel(t, "fuzz", base, cur, QuantInt8)
		checkKernel(t, "fuzz", base, cur, QuantNone)
	})
}

// TestEncodeDeltaIntoChainMatchesOracle runs the planner's canonical chain —
// recon_v = recon_{v-1} + quantize(cur_v − recon_{v-1}) — for 200 versions
// through the kernel and the oracle side by side, with −0 parameters and
// some dense-layout steps, and requires bit-identical chains.
func TestEncodeDeltaIntoChainMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := randVec(rng, 3000)
	for i := 0; i < len(cur); i += 7 {
		cur[i] = float32(math.Copysign(0, -1))
	}
	recon := append([]float32(nil), cur...)
	for v := 1; v <= 200; v++ {
		frac := 0.01
		if v%25 == 0 {
			frac = 0.9 // dense layout
		}
		cur = perturb(rng, cur, frac, 0.02)
		label := fmt.Sprintf("version %d", v)
		checkKernel(t, label, recon, cur, QuantNone)
		recon = checkKernel(t, label, recon, cur, QuantInt8)
	}
}

// The oracle: EncodeDelta and ApplyDelta as they were before the two-sweep
// kernel, loop for loop. FuzzEncodeDeltaInto and the chain test hold the
// kernel to them bit for bit.

func encodeDeltaOracle(base, cur []float32, baseVersion, version int64, quantBits int) (*message.WeightsDeltaPayload, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("serialize: delta over mismatched vectors (%d vs %d): %w", len(base), len(cur), ErrBadPayload)
	}
	d := &message.WeightsDeltaPayload{
		Version:     version,
		BaseVersion: baseVersion,
		NumParams:   int32(len(cur)),
	}
	switch quantBits {
	case QuantInt8:
		maxAbs := float32(0)
		for i := range cur {
			if a := abs32(cur[i] - base[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			return d, nil // nothing changed: pure version bump
		}
		scale := maxAbs / 127
		d.Scale = scale
		idx := make([]uint32, 0, len(cur)/8)
		q := make([]int8, 0, len(cur)/8)
		for i := range cur {
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
		if len(q) == 0 {
			d.Scale = 0
			return d, nil
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
			d.Indices = idx
			d.Q = q
		}
		return d, nil
	case QuantNone:
		idx := make([]uint32, 0, len(cur)/8)
		vals := make([]float32, 0, len(cur)/8)
		for i := range cur {
			if cur[i] != base[i] {
				idx = append(idx, uint32(i))
				vals = append(vals, cur[i]-base[i])
			}
		}
		if len(vals) == 0 {
			return d, nil
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
		return d, nil
	default:
		return nil, fmt.Errorf("serialize: unsupported quantBits %d: %w", quantBits, ErrBadPayload)
	}
}

func applyDeltaOracle(base []float32, d *message.WeightsDeltaPayload) ([]float32, error) {
	if int(d.NumParams) != len(base) {
		return nil, fmt.Errorf("serialize: delta for %d params applied to %d: %w", d.NumParams, len(base), ErrBadPayload)
	}
	out := append([]float32(nil), base...)
	switch {
	case d.Entries() == 0:
		// Pure version bump.
	case d.Indices != nil:
		if len(d.Indices) != d.Entries() {
			return nil, fmt.Errorf("serialize: %d indices for %d entries: %w", len(d.Indices), d.Entries(), ErrBadPayload)
		}
		if d.Scale > 0 {
			for j, i := range d.Indices {
				if int(i) >= len(out) {
					return nil, fmt.Errorf("serialize: delta index %d out of range: %w", i, ErrBadPayload)
				}
				out[i] += d.Scale * float32(d.Q[j])
			}
		} else {
			for j, i := range d.Indices {
				if int(i) >= len(out) {
					return nil, fmt.Errorf("serialize: delta index %d out of range: %w", i, ErrBadPayload)
				}
				out[i] += d.Values[j]
			}
		}
	default: // dense
		if d.Entries() != len(out) {
			return nil, fmt.Errorf("serialize: dense delta has %d entries for %d params: %w", d.Entries(), len(out), ErrBadPayload)
		}
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
	return out, nil
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
