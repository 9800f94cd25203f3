package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// cloneVec copies v: ApplyDelta advances its argument in place, so a test
// that still needs base applies to a clone of it.
func cloneVec(v []float32) []float32 { return append([]float32(nil), v...) }

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
	got, err := ApplyDelta(cloneVec(base), d)
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
		want, err := ApplyDelta(cloneVec(base), d)
		if err != nil {
			t.Fatalf("%s: ApplyDelta(sent): %v", tc.name, err)
		}
		got, err := ApplyDelta(cloneVec(base), d2)
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
		want, err1 := ApplyDelta(cloneVec(base), d)
		got, err2 := ApplyDelta(cloneVec(base), d2)
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
// an out-of-range write. ApplyDelta fails exactly when the oracle does and
// then leaves its vector bit-identical; when it succeeds it matches the
// oracle bit for bit.
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
		for i := range vec {
			vec[i] = float32(i%7) - 3
			if i%11 == 0 {
				vec[i] = float32(math.Copysign(0, -1))
			}
		}
		before := cloneVec(vec)
		want, wantErr := applyDeltaOracle(before, d)
		got, err := ApplyDelta(vec, d)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ApplyDelta error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			want = before
		} else if len(vec) > 0 && &got[0] != &vec[0] {
			t.Fatal("ApplyDelta did not advance its argument in place")
		}
		if !slices.Equal(float32Bits(vec), float32Bits(want)) {
			t.Fatalf("vector after ApplyDelta (error %v) differs from the oracle's", err)
		}
	})
}

// deltaKind is one payload kind encoded over its own base vector.
type deltaKind struct {
	name string
	base []float32
	d    *message.WeightsDeltaPayload
}

// deltaKinds encodes one delta of each payload kind — sparse int8, dense
// int8, sparse exact, dense exact and empty — over fresh n-parameter vectors
// whose first parameter is −0.
func deltaKinds(t *testing.T, n int) []deltaKind {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var out []deltaKind
	for _, tc := range []struct {
		name  string
		frac  float64
		quant int
		dense bool
	}{
		{"sparse-int8", 0.05, QuantInt8, false},
		{"dense-int8", 0.95, QuantInt8, true},
		{"sparse-exact", 0.05, QuantNone, false},
		{"dense-exact", 0.95, QuantNone, true},
		{"empty", 0, QuantInt8, false},
	} {
		base := randVec(rng, n)
		base[0] = float32(math.Copysign(0, -1))
		d, err := EncodeDelta(base, perturb(rng, base, tc.frac, 0.02), 1, 2, tc.quant)
		if err != nil {
			t.Fatalf("%s: EncodeDelta: %v", tc.name, err)
		}
		if (d.Entries() == 0) != (tc.frac == 0) || (d.Indices == nil && d.Entries() > 0) != tc.dense {
			t.Fatalf("%s: encoded %d entries, sparse=%v", tc.name, d.Entries(), d.Indices != nil)
		}
		out = append(out, deltaKind{tc.name, base, d})
	}
	return out
}

// TestApplyDeltaInPlace pins ApplyDelta's contract on every payload kind: the
// result is base itself, advanced without allocating, bit-identical to the
// copy-then-apply oracle.
func TestApplyDeltaInPlace(t *testing.T) {
	for _, k := range deltaKinds(t, 400) {
		want, err := applyDeltaOracle(k.base, k.d)
		if err != nil {
			t.Fatalf("%s: oracle: %v", k.name, err)
		}
		got, err := ApplyDelta(k.base, k.d)
		if err != nil {
			t.Fatalf("%s: ApplyDelta: %v", k.name, err)
		}
		if len(got) != len(k.base) || &got[0] != &k.base[0] {
			t.Fatalf("%s: result does not share base's backing array", k.name)
		}
		if !reflect.DeepEqual(float32Bits(got), float32Bits(want)) {
			t.Fatalf("%s: in-place result differs from the oracle", k.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = ApplyDelta(k.base, k.d) }); allocs != 0 {
			t.Fatalf("%s: ApplyDelta allocates %.0f times, want 0", k.name, allocs)
		}
	}
}

// TestMarshalWeightsDeltaAllocatesNothing: a delta's entry block and its
// LZ4 scratch are pooled, so encoding any payload kind into a pooled buffer
// allocates nothing in steady state — LZ4-framed blocks included.
func TestMarshalWeightsDeltaAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// Tag, Version, BaseVersion, NumParams and Scale precede the flags.
	const flagsAt = 1 + 8 + 8 + 4 + 4
	compressed := 0
	for _, k := range deltaKinds(t, 2000) {
		raw, err := MarshalPooled(k.d)
		if err != nil {
			t.Fatalf("%s: MarshalPooled: %v", k.name, err)
		}
		if raw[flagsAt]&deltaFlagLZ4 != 0 {
			compressed++
		}
		FreeBuf(raw)
		encode := func() {
			raw, _ := MarshalPooled(k.d)
			FreeBuf(raw)
		}
		if allocs := testing.AllocsPerRun(50, encode); allocs != 0 {
			t.Fatalf("%s: MarshalPooled allocates %.0f times per encode, want 0", k.name, allocs)
		}
	}
	if compressed == 0 {
		t.Fatal("no payload kind took the LZ4 path")
	}
}

// TestApplyDeltaErrorLeavesBaseUntouched: every malformed payload is refused
// before the first write — including one whose only bad index is its last.
func TestApplyDeltaErrorLeavesBaseUntouched(t *testing.T) {
	kinds := deltaKinds(t, 400)
	sparse, dense := kinds[0], kinds[1]
	for _, tc := range []struct {
		name string
		kind deltaKind
		bad  func(d *message.WeightsDeltaPayload)
	}{
		{"last index out of range", sparse, func(d *message.WeightsDeltaPayload) {
			d.Indices = append([]uint32(nil), d.Indices...)
			d.Indices[len(d.Indices)-1] = uint32(d.NumParams)
		}},
		{"index count differs from entries", sparse, func(d *message.WeightsDeltaPayload) {
			d.Indices = d.Indices[:len(d.Indices)-1]
		}},
		{"dense entries differ from params", dense, func(d *message.WeightsDeltaPayload) {
			d.Q = d.Q[:len(d.Q)-1]
		}},
		{"NumParams differs from len(base)", sparse, func(d *message.WeightsDeltaPayload) {
			d.NumParams++
		}},
	} {
		d := *tc.kind.d
		tc.bad(&d)
		before := float32Bits(tc.kind.base)
		got, err := ApplyDelta(tc.kind.base, &d)
		if !errors.Is(err, ErrBadPayload) || got != nil {
			t.Fatalf("%s: ApplyDelta = %d params, %v; want nil, ErrBadPayload", tc.name, len(got), err)
		}
		if !reflect.DeepEqual(float32Bits(tc.kind.base), before) {
			t.Fatalf("%s: a refused delta modified base", tc.name)
		}
	}
}

// TestDeltaDecodeBoundsAllocation: a few bytes that declare a huge entry
// count, or a huge LZ4 block, are refused before the decoder allocates for
// them; a block compressed as far as LZ4 goes still decodes.
func TestDeltaDecodeBoundsAllocation(t *testing.T) {
	header := func(flags byte) []byte {
		out := append([]byte{tagWeightsDelta}, make([]byte, 16)...) // versions
		out = binary.LittleEndian.AppendUint32(out, 1<<30)          // NumParams
		out = binary.LittleEndian.AppendUint32(out, 0)              // Scale
		return append(out, flags)
	}
	hugeCount := putBytes(header(deltaFlagSparse), binary.LittleEndian.AppendUint32(nil, 1<<30))
	hugeBlock := binary.LittleEndian.AppendUint32(header(deltaFlagSparse|deltaFlagLZ4), 1<<30)
	hugeBlock = putBytes(hugeBlock, make([]byte, 16))
	for name, raw := range map[string][]byte{"entry count": hugeCount, "lz4 block": hugeBlock} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(raw)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: Unmarshal = %v, want ErrBadPayload", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: refusing a %d-byte payload allocated %d bytes", name, len(raw), n)
		}
	}

	// Every other parameter moved by the same exact amount: the entry block
	// is a constant stride, about as compressible as blocks get.
	d := &message.WeightsDeltaPayload{Version: 2, BaseVersion: 1, NumParams: 40_000}
	for i := uint32(0); i < 40_000; i += 2 {
		d.Indices = append(d.Indices, i)
		d.Values = append(d.Values, 0.5)
	}
	raw, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if raw[25]&deltaFlagLZ4 == 0 {
		t.Fatal("constant-stride delta was not LZ4-compressed")
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal of a compressed delta: %v", err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatal("compressed delta did not round-trip")
	}
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
	applied, err := ApplyDelta(cloneVec(base), got)
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

	// Vectors long enough for the SSE2 sweeps' 16- and 8-lane blocks, with
	// each special inside the first block, on a block's last lane (15) and
	// in the tail the Go loops finish. Parameters are -1, 0 and 1 moved by
	// at most ½, one by 127, so the scale is 1 and half a step is ½ (the
	// scale is +Inf beside an infinite Δ).
	specialLanes := []struct{ base, cur float32 }{
		{0, nan}, {2, inf}, {-1, -inf}, {negZero, 0}, {0, tiny}, {1, 1.5}, {-1, -1.5},
	}
	for _, n := range []int{16, 37, 70} {
		for _, at := range []int{3, 15, n - 2} {
			for _, sp := range specialLanes {
				base, cur := make([]float32, n), make([]float32, n)
				for j := range cur {
					base[j] = float32(j%3 - 1)
					cur[j] = base[j] + float32(j%5-2)*0.25
				}
				cur[(at+n/2)%n] = base[(at+n/2)%n] + 127
				base[at], cur[at] = sp.base, sp.cur
				add(base, cur)
			}
		}
	}

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

// maxAbsDeltaScalar and nextAtLeastScalar are the two int8 sweeps as
// one-lane loops: the definitions maxAbsDelta and nextAtLeast, with their
// block kernels, must match.
func maxAbsDeltaScalar(base, cur []float32) float32 {
	var m uint32
	for i := range cur {
		if a := math.Float32bits(cur[i]-base[i]) &^ signBit; a <= infBits {
			m = max(m, a)
		}
	}
	return math.Float32frombits(m)
}

func nextAtLeastScalar(base, cur []float32, i int, half uint32) int {
	for ; i < len(cur); i++ {
		if math.Float32bits(cur[i]-base[i])&^signBit >= half {
			return i
		}
	}
	return i
}

// TestDeltaSweepsMatchScalar holds both sweeps to their scalar loops, for
// every length 0…70 (each block and tail of the 16-lane max and the 8-lane
// scan), every position of the first lane at or above half a step, and
// every start index. Parameters are ±0, so each Δ is exactly the lane's
// value; below half are ±0, a subnormal and values just under ½, at or
// above it ½ itself, ±Inf, NaN and the largest finite. Half a step is ½,
// then 0 (keeps every lane) and +Inf's bits (keeps only ±Inf and NaN).
// Then random vectors with specials, and nonzero parameters, run the same
// comparison.
func TestDeltaSweepsMatchScalar(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	below := []float32{0, negZero, 0.49999997, -0.25, math.Float32frombits(1), -1e-30}
	above := []float32{0.5, -0.5, 3, inf, -inf, nan, -math.MaxFloat32}
	const halfStep = 0x3f000000 // ½
	check := func(label string, base, cur []float32) {
		t.Helper()
		if got, want := maxAbsDelta(base, cur), maxAbsDeltaScalar(base, cur); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: maxAbsDelta = %#x, scalar %#x", label, math.Float32bits(got), math.Float32bits(want))
		}
		for _, half := range []uint32{halfStep, 0, infBits} {
			for i := 0; i <= len(cur); i++ {
				if got, want := nextAtLeast(base, cur, i, half), nextAtLeastScalar(base, cur, i, half); got != want {
					t.Fatalf("%s, half %#x, from %d: nextAtLeast = %d, scalar %d", label, half, i, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 70; n++ {
		for k := 0; k <= n; k++ { // the first lane kept; n for none
			base, cur := make([]float32, n), make([]float32, n)
			for j := range cur {
				if rng.Intn(2) == 0 {
					base[j] = negZero
				}
				switch {
				case j < k:
					cur[j] = below[rng.Intn(len(below))]
				case j == k:
					cur[j] = above[rng.Intn(len(above))]
				case rng.Intn(2) == 0:
					cur[j] = below[rng.Intn(len(below))]
				default:
					cur[j] = above[rng.Intn(len(above))]
				}
			}
			if got := nextAtLeastScalar(base, cur, 0, halfStep); got != k {
				t.Fatalf("n=%d: first kept lane %d, built for %d", n, got, k)
			}
			check(fmt.Sprintf("n=%d, first kept %d", n, k), base, cur)
		}
		for trial := 0; trial < 20; trial++ {
			base, cur := randVec(rng, n), randVec(rng, n)
			for _, v := range [][]float32{base, cur} {
				for j := range v {
					if rng.Intn(6) == 0 {
						v[j] = append(below, above...)[rng.Intn(len(below)+len(above))]
					}
				}
			}
			check(fmt.Sprintf("n=%d, random trial %d", n, trial), base, cur)
		}
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

// deltaChain builds the downlink-weights workload's deltas: a 300 k-parameter
// vector and the five int8 chain deltas that follow it, 1 % of the
// parameters nudged by up to ±0.01 per version.
func deltaChain(tb testing.TB) (base []float32, deltas []*message.WeightsDeltaPayload) {
	tb.Helper()
	const params = 300_000
	rng := rand.New(rand.NewSource(1))
	cur := make([]float32, params)
	for i := range cur {
		cur[i] = float32(rng.NormFloat64() * 0.1)
	}
	base = cloneVec(cur)
	recon, next := cloneVec(cur), make([]float32, params)
	for v := int64(1); v <= 5; v++ {
		for n := 0; n < params/100; n++ {
			cur[rng.Intn(params)] += (rng.Float32()*2 - 1) * 0.01
		}
		d, err := EncodeDeltaInto(recon, cur, next, v-1, v, QuantInt8)
		if err != nil {
			tb.Fatal(err)
		}
		deltas = append(deltas, d)
		recon, next = next, recon
	}
	return base, deltas
}

// BenchmarkApplyDelta advances a destination's vector along the chain, one
// delta per iteration, as a weight mirror does.
func BenchmarkApplyDelta(b *testing.B) {
	vec, deltas := deltaChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyDelta(vec, deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalWeightsDelta decodes the chain's wire bodies, one per
// iteration, as a destination's materialize does.
func BenchmarkUnmarshalWeightsDelta(b *testing.B) {
	_, deltas := deltaChain(b)
	raws := make([][]byte, len(deltas))
	for i, d := range deltas {
		raw, err := Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = raw
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raws[i%len(raws)]); err != nil {
			b.Fatal(err)
		}
	}
}
