package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"xingtian/internal/env"
	"xingtian/internal/lz4"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

func sampleBatch(rng *rand.Rand, steps int, frames bool) *rollout.Batch {
	b := &rollout.Batch{ExplorerID: 3, WeightsVersion: 42}
	for i := 0; i < steps; i++ {
		s := rollout.Step{
			Action:  int32(rng.Intn(4)),
			Reward:  rng.Float32() * 10,
			Done:    rng.Intn(5) == 0,
			Value:   rng.Float32(),
			LogProb: -rng.Float32(),
			Logits:  []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()},
		}
		if frames {
			f := make([]byte, 84*84*2)
			rng.Read(f)
			s.Obs = env.Obs{Frame: f, FrameH: 84, FrameW: 84, FrameN: 2}
		} else {
			s.Obs = env.Obs{Vec: []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}}
		}
		b.Steps = append(b.Steps, s)
	}
	b.BootstrapObs = env.Obs{Vec: []float32{1, 2, 3, 4}}
	return b
}

// stackedBatch plays a frame-stacking environment the way the arcade games
// stack: each observation holds the last n 6×7 frames, oldest first, so it
// shifts the one before; after every step listed in resets the stack starts
// over as n copies of a fresh frame. withVec adds the feature vector the
// arcade games send beside their frames.
func stackedBatch(rng *rand.Rand, steps, n int, withVec bool, resets ...int) *rollout.Batch {
	const h, w = 6, 7
	var frames [][]byte
	frame := func() []byte {
		f := make([]byte, h*w)
		rng.Read(f)
		return f
	}
	restart := func() {
		f := frame()
		frames = frames[:0]
		for i := 0; i < n; i++ {
			frames = append(frames, f)
		}
	}
	obs := func() env.Obs {
		o := env.Obs{Frame: bytes.Join(frames, nil), FrameH: h, FrameW: w, FrameN: n}
		if withVec {
			o.Vec = []float32{rng.Float32(), rng.Float32()}
		}
		return o
	}
	restart()
	b := &rollout.Batch{ExplorerID: 2, WeightsVersion: 9}
	for i := 0; i < steps; i++ {
		done := slices.Contains(resets, i)
		b.Steps = append(b.Steps, rollout.Step{
			Obs: obs(), Action: int32(i % 3), Reward: float32(i), Done: done,
			Logits: []float32{rng.Float32(), rng.Float32()},
		})
		if done {
			restart()
		} else {
			frames = append(frames[1:], frame())
		}
	}
	b.BootstrapObs = obs()
	return b
}

// unshiftedLen is the length of b's encoding with every stack written
// whole: a one-frame stack never shifts, and FrameN is a fixed-width field.
func unshiftedLen(t *testing.T, b *rollout.Batch) int {
	t.Helper()
	whole := *b
	whole.Steps = slices.Clone(b.Steps)
	for i := range whole.Steps {
		whole.Steps[i].Obs.FrameN = 1
	}
	whole.BootstrapObs.FrameN = 1
	raw, err := Marshal(&whole)
	if err != nil {
		t.Fatal(err)
	}
	return len(raw)
}

// encodingPin is the length and CRC32C of a rollout's encoding as it was
// before frame stacks were shifted; a rollout with no shifted stack must
// still encode to exactly those bytes.
type encodingPin struct {
	seed   int64
	steps  int
	frames bool
	len    int
	crc    uint32
}

func checkPins(t *testing.T, pins []encodingPin) {
	t.Helper()
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, p := range pins {
		raw, err := Marshal(sampleBatch(rand.New(rand.NewSource(p.seed)), p.steps, p.frames))
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.Checksum(raw, table); len(raw) != p.len || got != p.crc {
			t.Fatalf("sampleBatch(seed %d, %d steps, frames %v) encodes to %d bytes, crc %#08x; want %d, %#08x",
				p.seed, p.steps, p.frames, len(raw), got, p.len, p.crc)
		}
	}
}

func TestRolloutRoundTripVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := sampleBatch(rng, 20, false)
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	out, ok := got.(*rollout.Batch)
	if !ok {
		t.Fatalf("Unmarshal returned %T", got)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("rollout batch round trip mismatch")
	}
	checkPins(t, []encodingPin{
		{seed: 1, steps: 20, len: 1278, crc: 0x4d0ab1da},
		{seed: 12, steps: 40, len: 2518, crc: 0x37e7f68b},
	})
}

// TestRolloutRoundTripFrames: frame rollouts survive marshal/unmarshal
// whether their stacks are random, shift, restart after a reset or cannot
// shift; every stack that shifts its predecessor — the bootstrap
// observation's included — is sent as one frame, and the header records the
// length the body has with every stack whole.
func TestRolloutRoundTripFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const frame = 6 * 7
	for _, tc := range []struct {
		name    string
		in      *rollout.Batch
		shifted int // stacks sent as one frame
		n       int // frames per stack
	}{
		{"random stacks", sampleBatch(rng, 5, true), 0, 2},
		{"frame only", stackedBatch(rng, 10, 4, false), 10, 4},
		{"frame and vector", stackedBatch(rng, 10, 4, true), 10, 4},
		{"reset mid-rollout", stackedBatch(rng, 10, 4, true, 3, 6), 8, 4},
		{"one-frame stacks", stackedBatch(rng, 10, 1, true), 0, 1},
		{"bootstrap shifts the first step", stackedBatch(rng, 1, 4, false), 1, 4},
	} {
		data, err := Marshal(tc.in)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.in, got) {
			t.Fatalf("%s: round trip mismatch", tc.name)
		}
		whole, elided := unshiftedLen(t, tc.in), tc.shifted*(tc.n-1)*frame
		wantTag, wantLen := tagRollout, whole
		if tc.shifted > 0 {
			wantTag, wantLen = tagRolloutShifted, whole-elided+shiftHeader
		}
		if data[0] != wantTag || len(data) != wantLen || LogicalLen(data) != whole {
			t.Fatalf("%s: tag %d, %d bytes, logical %d; want tag %d, %d bytes, logical %d",
				tc.name, data[0], len(data), LogicalLen(data), wantTag, wantLen, whole)
		}
		if framed, _ := (Compressor{}).Pack(data); FramedLogicalLen(framed) != 1+whole {
			t.Fatalf("%s: raw frame's logical length %d, want %d", tc.name, FramedLogicalLen(framed), 1+whole)
		}
	}
	checkPins(t, []encodingPin{
		{seed: 2, steps: 5, frames: true, len: 70888, crc: 0xd8cb5566},
		{seed: 13, steps: 8, frames: true, len: 113398, crc: 0x242081dc},
	})
}

func TestWeightsRoundTrip(t *testing.T) {
	in := &message.WeightsPayload{Version: 7, Data: []float32{1.5, -2.25, 0, 3e8}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("weights round trip = %+v", got)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := &message.StatsPayload{
		Node: "explorer-5", Episodes: 12, MeanReturn: 123.5,
		StepsGenerated: 99, StepsConsumed: 98, TrainIters: 10, UnixNanos: 12345,
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("stats round trip = %+v", got)
	}
}

func TestControlRoundTrip(t *testing.T) {
	in := &message.ControlPayload{
		Kind:        message.ControlSetHyperparams,
		Hyperparams: map[string]float64{"lr": 0.001, "gamma": 0.99},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("control round trip = %+v", got)
	}
	// Empty hyperparams.
	in2 := &message.ControlPayload{Kind: message.ControlShutdown}
	data, _ = Marshal(in2)
	got, err = Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in2, got) {
		t.Fatalf("shutdown round trip = %+v", got)
	}
	// Membership traffic: the Machine field must survive the wire — a lease
	// renewal that decodes as machine 0 reads as the coordinator renewing.
	in3 := &message.ControlPayload{
		Kind:    message.ControlLeaseRenew,
		Machine: 3,
		Peer:    "memberd-3",
	}
	data, _ = Marshal(in3)
	got, err = Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in3, got) {
		t.Fatalf("lease renew round trip = %+v", got)
	}
}

// TestControlDecodeBoundsAllocation: a control payload's map counts are
// declared, so a payload that claims far more entries than its bytes hold
// must be refused before a map is sized by the claim. Each entry takes at
// least 12 bytes (a 4-byte key length and an 8-byte value), so the decoder
// allows at most remaining/12. With the count at that bound, the one map it
// sizes costs a few times the payload: the test allows k·len + c bytes with
// k = 8 (a pre-sized Go map spends at most ≈ 5.3 bytes per payload byte at
// 12 bytes per entry) and c = 64 KB. A 1 MB payload declaring just under
// 2²⁰ hyperparams made the decoder bounded only by the payload length
// allocate ≈ 56 MB.
func TestControlDecodeBoundsAllocation(t *testing.T) {
	const k, c = 8, 64 << 10
	const size = 1 << 20
	// forge returns a control payload whose hyperparam count (acks = false)
	// or ack count (acks = true) is n, padded with zero bytes to size.
	forge := func(acks bool, n uint32) []byte {
		out := append(make([]byte, 0, size), tagControl, byte(message.ControlAckSnapshot))
		if acks {
			out = binary.LittleEndian.AppendUint32(out, 0)
		}
		out = binary.LittleEndian.AppendUint32(out, n)
		return out[:size]
	}
	for _, acks := range []bool{false, true} {
		head := 2 + 4
		if acks {
			head += 4
		}
		atBound := uint32((size - head) / 12)
		for _, n := range []uint32{size - 64, size / 2, 1<<32 - 1, atBound + 1, atBound} {
			data := forge(acks, n)
			_, alloc, err := decodeAllocs(data)
			if n > atBound && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("acks=%v count=%d: Unmarshal = %v, want ErrBadPayload", acks, n, err)
			}
			if alloc > k*size+c {
				t.Fatalf("acks=%v count=%d: decoding a %d-byte payload allocated %d bytes, bound %d",
					acks, n, size, alloc, k*size+c)
			}
		}
	}

	// The bound refuses no valid payload: the tightest one, whose entries
	// are all 12 bytes (an empty key), and a wide one round-trip.
	tight := &message.ControlPayload{
		Kind:        message.ControlAckSnapshot,
		Hyperparams: map[string]float64{"": 1},
		Acked:       map[string]int64{"": 2},
	}
	wide := &message.ControlPayload{Kind: message.ControlAckSnapshot, Hyperparams: map[string]float64{}, Acked: map[string]int64{}, Peer: "learn-1"}
	for i := 0; i < 500; i++ {
		wide.Hyperparams[string(rune('a'+i%26))+fmt.Sprint(i)] = float64(i)
		wide.Acked[fmt.Sprint(i)] = int64(i)
	}
	for _, in := range []*message.ControlPayload{tight, wide} {
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%d entries): %v", len(in.Hyperparams)+len(in.Acked), err)
		}
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("control round trip = %+v, want %+v", got, in)
		}
	}
}

// TestControlMarshalIsCanonical: equal control payloads marshal to equal
// bytes whatever order their maps were filled in, so no byte-level
// comparison, checksum or replay depends on map iteration order.
func TestControlMarshalIsCanonical(t *testing.T) {
	const keys = 16
	build := func(order []int) *message.ControlPayload {
		c := &message.ControlPayload{
			Kind:        message.ControlAckSnapshot,
			Hyperparams: make(map[string]float64, keys),
			Acked:       make(map[string]int64, keys),
		}
		for _, i := range order {
			c.Hyperparams[fmt.Sprintf("h%02d", i)] = float64(i) / 8
			c.Acked[fmt.Sprintf("explorer-%d", i)] = int64(100 + i)
		}
		return c
	}
	rng := rand.New(rand.NewSource(1))
	want, err := Marshal(build(rng.Perm(keys)))
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for trial := 0; trial < 50; trial++ {
		got, err := Marshal(build(rng.Perm(keys)))
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: equal payloads marshalled to different bytes", trial)
		}
	}
}

func TestDummyRoundTrip(t *testing.T) {
	in := &message.DummyPayload{Data: bytes.Repeat([]byte{0xAB}, 1000)}
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatal("dummy round trip mismatch")
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(42); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Marshal(int) = %v, want ErrBadPayload", err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},         // unknown tag
		{tagRollout}, // truncated
		{tagWeights, 1, 2},
		{tagStats, 0xFF},
		{tagControl},
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %d: Unmarshal(%v) succeeded on malformed input", i, c)
		}
	}
}

func TestPackBelowThresholdRaw(t *testing.T) {
	c := NewCompressor()
	raw := make([]byte, 1000)
	framed, compressed := c.Pack(raw)
	if compressed {
		t.Fatal("1 KB body compressed despite 1 MB threshold")
	}
	out, err := Unpack(framed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("raw frame round trip mismatch")
	}
}

func TestPackAboveThresholdCompresses(t *testing.T) {
	c := NewCompressor()
	raw := bytes.Repeat([]byte("rollout"), 200_000) // 1.4 MB, compressible
	framed, compressed := c.Pack(raw)
	if !compressed {
		t.Fatal("compressible 1.4 MB body not compressed")
	}
	if len(framed) >= len(raw)/2 {
		t.Fatalf("framed %d bytes of %d raw; want strong compression", len(framed), len(raw))
	}
	out, err := Unpack(framed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("lz4 frame round trip mismatch")
	}
}

func TestPackIncompressibleFallsBack(t *testing.T) {
	c := Compressor{Threshold: 1024}
	rng := rand.New(rand.NewSource(3))
	raw := make([]byte, 64*1024)
	rng.Read(raw)
	framed, compressed := c.Pack(raw)
	out, err := Unpack(framed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("incompressible round trip mismatch")
	}
	if compressed && len(framed) > len(raw)+9 {
		t.Fatal("kept a compression that grew the payload")
	}
}

func TestCompressionDisabled(t *testing.T) {
	c := Compressor{Threshold: 0}
	raw := bytes.Repeat([]byte{1}, 4<<20)
	framed, compressed := c.Pack(raw)
	if compressed {
		t.Fatal("disabled compressor compressed")
	}
	if len(framed) != len(raw)+1 {
		t.Fatalf("framed size %d, want raw+1", len(framed))
	}
}

func TestUnpackMalformed(t *testing.T) {
	if _, err := Unpack(nil); err == nil {
		t.Fatal("Unpack(nil) succeeded")
	}
	if _, err := Unpack([]byte{frameLZ4, 1, 2}); err == nil {
		t.Fatal("Unpack(truncated lz4) succeeded")
	}
	if _, err := Unpack([]byte{7}); err == nil {
		t.Fatal("Unpack(unknown flag) succeeded")
	}
}

// TestUnpackBoundsDeclaredLength: an LZ4 frame whose header declares more
// raw bytes than its block can decode to is refused before anything is
// allocated for it, and the densest block Pack emits still round-trips.
func TestUnpackBoundsDeclaredLength(t *testing.T) {
	forged := binary.LittleEndian.AppendUint64([]byte{frameLZ4}, 1<<30)
	forged = append(forged, 0x00, 0x00) // 11 bytes claiming 1 GiB
	if n := UnpackedLen(forged); n != 0 {
		t.Fatalf("UnpackedLen = %d, want 0", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errUnpack := Unpack(forged)
	_, errInto := NewCompressor().UnpackInto(nil, forged)
	runtime.ReadMemStats(&after)
	for name, err := range map[string]error{"Unpack": errUnpack, "UnpackInto": errInto} {
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s = %v, want ErrBadPayload", name, err)
		}
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("refusing an %d-byte frame allocated %d bytes", len(forged), n)
	}

	zeros := make([]byte, 4<<20)
	framed, compressed := NewCompressor().Pack(zeros)
	if !compressed {
		t.Fatal("4 MiB of zeros not compressed")
	}
	if UnpackedLen(framed) != len(zeros) {
		t.Fatalf("UnpackedLen = %d, want %d", UnpackedLen(framed), len(zeros))
	}
	out, err := Unpack(framed)
	if err != nil {
		t.Fatalf("Unpack(4 MiB of zeros, %d-byte frame): %v", len(framed), err)
	}
	if !bytes.Equal(out, zeros) {
		t.Fatal("4 MiB of zeros did not round-trip")
	}
}

// TestPropertyRolloutRoundTrip: random batches survive marshal/unmarshal.
func TestPropertyRolloutRoundTrip(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := sampleBatch(rng, int(steps%50), seed%2 == 0)
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnmarshalNeverPanics on arbitrary garbage.
func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = Unmarshal(garbage)
		_, _ = Unpack(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalRollout500Frames(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	batch := sampleBatch(rng, 100, true)
	b.SetBytes(int64(batch.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalRollout decodes 100 steps of random, whole stacks and an
// 80-step Breakout rollout, whose stacks shift.
func BenchmarkUnmarshalRollout(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch *rollout.Batch
	}{
		{"random", sampleBatch(rand.New(rand.NewSource(5)), 100, true)},
		{"breakout", breakoutBatch(b)},
	} {
		data, err := Marshal(bc.batch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Buffer pool --------------------------------------------------------------------

// TestMarshalPooledMatchesMarshal: the pooled encoder must be byte-for-byte
// identical to the allocating one for every payload kind.
func TestMarshalPooledMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bodies := []any{
		sampleBatch(rng, 20, true),
		&message.WeightsPayload{Version: 7, Data: []float32{1, 2, 3}},
		&message.StatsPayload{Node: "m0", Episodes: 3, MeanReturn: 1.5},
		&message.ControlPayload{Kind: 1, Hyperparams: map[string]float64{"lr": 0.01}},
		&message.DummyPayload{Data: []byte("payload")},
	}
	for _, body := range bodies {
		want, err := Marshal(body)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", body, err)
		}
		got, err := MarshalPooled(body)
		if err != nil {
			t.Fatalf("MarshalPooled(%T): %v", body, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalPooled(%T) differs from Marshal", body)
		}
		FreeBuf(got)
	}
}

// TestMarshalPooledNoAliasingWhileLive: two live pooled buffers must never
// share backing memory — consecutive MarshalPooled calls without an
// intervening FreeBuf yield independent buffers.
func TestMarshalPooledNoAliasingWhileLive(t *testing.T) {
	a, err := MarshalPooled(&message.DummyPayload{Data: []byte("aaaaaaaa")})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), a...)
	b, err := MarshalPooled(&message.DummyPayload{Data: []byte("bbbbbbbb")})
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &b[0] {
		t.Fatal("consecutive MarshalPooled calls alias the same backing array while both are live")
	}
	if !bytes.Equal(a, snapshot) {
		t.Fatalf("first buffer mutated by second marshal: %q -> %q", snapshot, a)
	}
	FreeBuf(a)
	FreeBuf(b)
}

// TestFreeBufRecycles: after FreeBuf, the next GetBuf of a fitting size
// reuses the grown backing array instead of allocating. sync.Pool may drop
// entries under GC pressure, so the test pins one cycle without GC in
// between and tolerates (skips on) an empty pool rather than flaking.
func TestFreeBufRecycles(t *testing.T) {
	buf := GetBuf(1 << 16)
	buf = append(buf, 1, 2, 3)
	first := &buf[:1][0]
	FreeBuf(buf)
	again := GetBuf(1 << 16)
	if cap(again) < 1<<16 {
		t.Skipf("pool did not retain the buffer (cap=%d); GC emptied it", cap(again))
	}
	if &again[:1][0] != first {
		t.Skip("pool handed back a different buffer (per-P caches); reuse not observable here")
	}
	if len(again) != 0 {
		t.Fatalf("GetBuf returned non-empty buffer, len=%d", len(again))
	}
	FreeBuf(again)
}

// TestFreeBufDropsOversized: buffers beyond the pooling bound must not be
// retained (they would pin memory for the process lifetime).
func TestFreeBufDropsOversized(t *testing.T) {
	FreeBuf(make([]byte, 0, maxPooledCap+1)) // must not panic or retain
	FreeBuf(nil)                             // no-op
}

// TestMarshalPooledErrorReturnsNothing: a failed pooled marshal must not
// hand the caller a buffer (the acquire-on-success rule refbalance checks).
func TestMarshalPooledErrorReturnsNothing(t *testing.T) {
	out, err := MarshalPooled(struct{}{})
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
}

// BenchmarkMarshalRolloutPooled is BenchmarkMarshalRollout500Frames on the
// pooled path: steady-state allocs/op should be ~0 versus one buffer per
// message for the heap path.
func BenchmarkMarshalRolloutPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	batch := sampleBatch(rng, 100, true)
	b.SetBytes(int64(batch.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MarshalPooled(batch)
		if err != nil {
			b.Fatal(err)
		}
		FreeBuf(out)
	}
}

func BenchmarkMarshalWeightsPooled(b *testing.B) {
	w := &message.WeightsPayload{Version: 1, Data: make([]float32, 100_000)}
	b.SetBytes(int64(4 * len(w.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MarshalPooled(w)
		if err != nil {
			b.Fatal(err)
		}
		FreeBuf(out)
	}
}

// breakoutBatch plays Breakout under a uniformly random policy and returns
// an 80-step rollout of 4×84×84 frame stacks: ~2.27 MB encoded, the shape
// that crosses the LZ4 threshold in production.
func breakoutBatch(tb testing.TB) *rollout.Batch {
	tb.Helper()
	e, err := env.Make("Breakout", 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	obs, err := e.Reset()
	if err != nil {
		tb.Fatal(err)
	}
	b := &rollout.Batch{ExplorerID: 1, WeightsVersion: 7}
	// The opening screen is nearly empty; cut the rollout after it fills.
	for i := 0; i < 400+80; i++ {
		action := rng.Intn(e.NumActions())
		next, reward, done, err := e.Step(action)
		if err != nil {
			tb.Fatal(err)
		}
		if i >= 400 {
			b.Steps = append(b.Steps, rollout.Step{
				Obs: obs, Action: int32(action), Reward: float32(reward), Done: done,
				Value: rng.Float32(), LogProb: -rng.Float32(),
				Logits: []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()},
			})
		}
		if obs = next; done {
			if obs, err = e.Reset(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	b.BootstrapObs = obs
	return b
}

// TestPackExactCapacity: the object store keeps what Pack returns and
// budgets it by length, so a 28 KB compressed frame must not pin the
// worst-case-sized buffer it was compressed into.
func TestPackExactCapacity(t *testing.T) {
	c := NewCompressor()
	compressible := bytes.Repeat([]byte("rollout"), 400_000)
	rng := rand.New(rand.NewSource(6))
	incompressible := make([]byte, 2<<20)
	rng.Read(incompressible)
	for _, raw := range [][]byte{compressible, incompressible, make([]byte, 1000)} {
		framed, compressed := c.Pack(raw)
		if cap(framed) != len(framed) {
			t.Fatalf("Pack(%d bytes, compressed=%v): cap %d != len %d", len(raw), compressed, cap(framed), len(framed))
		}
	}
}

// TestUnpackIntoUsesBuffer: a buffer of UnpackedLen bytes receives the
// decompressed body; a short one is left alone and the result is fresh; a raw
// frame needs no buffer at all.
func TestUnpackIntoUsesBuffer(t *testing.T) {
	c := NewCompressor()
	raw := bytes.Repeat([]byte("rollout"), 200_000)
	framed, compressed := c.Pack(raw)
	if !compressed {
		t.Fatal("body not compressed")
	}
	if n := UnpackedLen(framed); n != len(raw) {
		t.Fatalf("UnpackedLen = %d, want %d", n, len(raw))
	}
	buf := make([]byte, 0, len(raw))
	out, err := c.UnpackInto(buf, framed)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("UnpackInto: err=%v, equal=%v", err, bytes.Equal(out, raw))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("UnpackInto allocated although the buffer was large enough")
	}
	small := make([]byte, 0, 16)
	out, err = c.UnpackInto(small, framed)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("UnpackInto(short buffer): err=%v, equal=%v", err, bytes.Equal(out, raw))
	}

	rawFramed, _ := c.Pack([]byte("tiny"))
	if n := UnpackedLen(rawFramed); n != 0 {
		t.Fatalf("UnpackedLen(raw frame) = %d, want 0", n)
	}
	if n := UnpackedLen([]byte{frameLZ4, 1, 2}); n != 0 {
		t.Fatalf("UnpackedLen(truncated) = %d, want 0", n)
	}
	if out, err := c.UnpackInto(nil, rawFramed); err != nil || string(out) != "tiny" {
		t.Fatalf("UnpackInto(raw frame) = %q, %v", out, err)
	}
}

// checkStacksShareFrames checks the layout unmarshalRollout gives a decoded
// rollout's frames, and returns how many stacks shift their predecessor.
// Every stack is capped at its own length. A stack that shifts its
// predecessor holds its first N−1 frames at the address of the predecessor's
// last N−1. Together the frames fill one array, oldest first, that holds
// exactly the frame bytes the payload carried: each whole stack, and each
// shifted stack's newest frame.
func checkStacksShareFrames(t testing.TB, b *rollout.Batch) int {
	t.Helper()
	obs := make([]*env.Obs, 0, len(b.Steps)+1)
	for i := range b.Steps {
		obs = append(obs, &b.Steps[i].Obs)
	}
	obs = append(obs, &b.BootstrapObs)
	addr := func(f []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(f))) }
	var first, end uintptr // where the array starts, and where the frames so far end
	carried, shared := 0, 0
	for i, o := range obs {
		f := o.Frame
		if cap(f) != len(f) {
			t.Fatalf("stack %d: cap %d != len %d", i, cap(f), len(f))
		}
		if len(f) == 0 {
			continue // an empty slice's address is not a position in the array
		}
		start := addr(f)
		if i > 0 && shifts(obs[i-1], o) {
			p, hw := obs[i-1].Frame, len(f)/o.FrameN
			if &f[0] != &p[hw] {
				t.Fatalf("stack %d shifts its predecessor but does not share its frames", i)
			}
			shared++
			carried += hw
			start += uintptr(len(f) - hw)
		} else {
			carried += len(f)
		}
		if first == 0 {
			first = start
		} else if start != end {
			t.Fatalf("stack %d: its new bytes do not follow the previous stack's", i)
		}
		end = addr(f) + uintptr(len(f))
	}
	if int(end-first) != carried {
		t.Fatalf("frames span %d bytes, carried %d", end-first, carried)
	}
	return shared
}

// TestUnmarshalRolloutStacksShareFrames: decoded frames live in one array of
// exactly the frame bytes the payload carried, and a shifted stack is a
// window onto it that shares its first N−1 frames with its predecessor
// (checkStacksShareFrames). Each stack is capped at its own length, so
// growing one reallocates instead of running into its neighbour, and a
// zero-length frame stays a non-nil empty one, or the re-marshalled body
// would change shape.
func TestUnmarshalRolloutStacksShareFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	random := sampleBatch(rng, 4, true)
	random.Steps[2].Obs.Frame = []byte{} // encodes as a zero-length frame
	for _, tc := range []struct {
		name    string
		in      *rollout.Batch
		shifted int
	}{
		{"random stacks", random, 0},
		{"shifted stacks", stackedBatch(rng, 6, 4, true), 6},
		{"reset mid-rollout", stackedBatch(rng, 8, 4, true, 3), 7},
	} {
		data, err := Marshal(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		out := got.(*rollout.Batch)
		if again, err := Marshal(out); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: decoded body re-marshals differently (%v)", tc.name, err)
		}
		if n := checkStacksShareFrames(t, out); n != tc.shifted {
			t.Fatalf("%s: %d stacks share their predecessor's frames, want %d", tc.name, n, tc.shifted)
		}
		if tc.name == "random stacks" {
			if f := out.Steps[2].Obs.Frame; f == nil || len(f) != 0 {
				t.Fatalf("zero-length frame decoded to %v (nil %v), want an empty frame", f, f == nil)
			}
			if out.BootstrapObs.Frame != nil {
				t.Fatal("vector bootstrap observation grew a frame")
			}
		}
		for i := range out.Steps {
			f := out.Steps[i].Obs.Frame
			if len(f) == 0 {
				continue
			}
			if grown := append(f, 0xEE); &grown[0] == &f[0] {
				t.Fatalf("%s: append to decoded frame %d did not reallocate", tc.name, i)
			}
		}
	}
}

// TestSizeHintBoundsRollouts: a marshal buffer sized by SizeHint must never
// grow, or the pooled buffer is abandoned for a copy mid-marshal.
func TestSizeHintBoundsRollouts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	both := sampleBatch(rng, 7, true)
	for i := range both.Steps {
		both.Steps[i].Obs.Vec = []float32{1, 2}
		both.Steps[i].ActionVec = []float32{3}
	}
	both.BootstrapObs = both.Steps[0].Obs
	for _, b := range []*rollout.Batch{sampleBatch(rng, 40, false), sampleBatch(rng, 80, true), both, {}} {
		data, err := Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if hint := SizeHint(b); len(data) > hint || hint > len(data)+64+32*len(b.Steps) {
			t.Fatalf("SizeHint = %d for a %d-byte, %d-step encoding", hint, len(data), len(b.Steps))
		}
	}
}

// TestBufPoolFitsRequests: a fresh buffer has at most a sixteenth to spare,
// and a pooled buffer that is too short for a request is replaced, never
// returned.
func TestBufPoolFitsRequests(t *testing.T) {
	runtime.GC() // two collections empty every sync.Pool, so the
	runtime.GC() // capacities below are those of fresh buffers
	for _, hint := range []int{1, 100, minBufCap, minBufCap + 1, 1_200_009, 2_270_000, maxPooledCap} {
		b := GetBuf(hint)
		if cap(b) < hint || len(b) != 0 {
			t.Fatalf("GetBuf(%d): len %d cap %d", hint, len(b), cap(b))
		}
		if hint >= minBufCap && cap(b) > hint+hint/16 {
			t.Fatalf("GetBuf(%d) rounded up to %d, more than a sixteenth", hint, cap(b))
		}
	}
	if b := GetBuf(0); b != nil {
		t.Fatalf("GetBuf(0) = cap %d, want nil", cap(b))
	}
	for i := 0; i < 8; i++ {
		FreeBuf(make([]byte, 0, minBufCap))
	}
	for i := 0; i < 8; i++ {
		if b := GetBuf(1 << 20); cap(b) < 1<<20 {
			t.Fatalf("GetBuf(1 MB) answered with a pooled %d-byte buffer", cap(b))
		}
	}
}

// TestBufPoolMixedSizesSteadyState: the fabric's 100-byte frame headers and
// the channel's 2 MB bodies go through the same pool; alternating between
// them must settle at zero allocations — the short buffers are weeded out,
// not popped, re-filed and allocated around for ever.
func TestBufPoolMixedSizesSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	cycle := func() {
		small := GetBuf(100)
		large := GetBuf(2 << 20)
		FreeBuf(small)
		FreeBuf(large)
		large = GetBuf(2 << 20)
		small = GetBuf(100)
		FreeBuf(large)
		FreeBuf(small)
	}
	for i := 0; i < 4; i++ {
		cycle() // converge: every buffer in circulation now fits 2 MB
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("mixed-size GetBuf/FreeBuf allocates %.0f times per cycle in steady state, want 0", allocs)
	}
}

// BenchmarkPackUnpackRollout is the channel's byte path for one Atari
// rollout as Port.Send and Port.Recv run it: frame into the store's copy,
// unframe into a pooled buffer.
func BenchmarkPackUnpackRollout(b *testing.B) {
	raw, err := Marshal(breakoutBatch(b))
	if err != nil {
		b.Fatal(err)
	}
	c := NewCompressor()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		framed, _ := c.Pack(raw)
		buf := GetBuf(UnpackedLen(framed))
		out, err := c.UnpackInto(buf, framed)
		if err != nil || len(out) != len(raw) {
			b.Fatalf("UnpackInto: %d bytes, %v", len(out), err)
		}
		FreeBuf(buf)
	}
}

// denseWeightsBody marshals a 300 k-parameter weight snapshot: the 1.2 MB
// body a weight-plane resync sends, above the LZ4 threshold and
// incompressible.
func denseWeightsBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	w := &message.WeightsPayload{Version: 1, Data: make([]float32, 300_000)}
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64() * 0.1)
	}
	raw, err := Marshal(w)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestPackProbeDecidesOnTheHead: above the threshold, Pack compresses a body
// only when its first packProbeBytes shrink. A compressible head yields the
// frame that compressing the whole body gives, byte for byte; an
// incompressible head — a dense weight snapshot, or noise ahead of a
// compressible tail — is framed raw.
func TestPackProbeDecidesOnTheHead(t *testing.T) {
	c := NewCompressor()
	frames, err := Marshal(breakoutBatch(t))
	if err != nil {
		t.Fatal(err)
	}
	// The threshold is judged on the length the rollout had before its
	// stacks were shifted, so the paper's 1 MB rule still compresses it.
	if n := LogicalLen(frames); n != 2_302_158 || len(frames) >= c.Threshold {
		t.Fatalf("frame rollout: %d bytes, logical %d; want under the threshold, logical 2302158", len(frames), n)
	}
	want := binary.LittleEndian.AppendUint64([]byte{frameLZ4}, uint64(len(frames)))
	want = lz4.Compress(want, frames)
	if framed, compressed := c.Pack(frames); !compressed || !bytes.Equal(framed, want) {
		t.Fatalf("frame rollout: compressed=%v, %d bytes; want the whole-body LZ4 frame of %d bytes", compressed, len(framed), len(want))
	}

	noise := make([]byte, packProbeBytes)
	rand.New(rand.NewSource(9)).Read(noise)
	noisyHead := append(noise, make([]byte, 2<<20)...)
	for name, raw := range map[string][]byte{"dense weights": denseWeightsBody(t), "noisy head": noisyHead} {
		// The one-pass parse gives up at the probe, not after the whole
		// body; its literal run is charged with its length bytes, without
		// which the dense snapshot's head counts as shrinking.
		if _, shrunk := lz4.CompressProbe(nil, raw, packProbeBytes); shrunk {
			t.Fatalf("%s: CompressProbe(%d) ran past the probe; want it to give up", name, packProbeBytes)
		}
		framed, compressed := c.Pack(raw)
		if compressed || len(framed) != len(raw)+1 {
			t.Fatalf("%s: compressed=%v, %d framed bytes for %d raw; want a raw frame", name, compressed, len(framed), len(raw))
		}
		if out, err := Unpack(framed); err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("%s: raw frame round trip: %v", name, err)
		}
	}
}

// TestPackFrameRolloutPinned pins the frame the uplink ships for a shifted
// Breakout rollout — its length and CRC32C as the word-wise compressor
// produced them — so a change to the LZ4 parse on the production shape
// fails here, not only on the golden block's unshifted input.
func TestPackFrameRolloutPinned(t *testing.T) {
	raw, err := Marshal(breakoutBatch(t))
	if err != nil {
		t.Fatal(err)
	}
	framed, compressed := NewCompressor().Pack(raw)
	crc := crc32.Checksum(framed, crc32.MakeTable(crc32.Castagnoli))
	if !compressed || len(framed) != 10_960 || crc != 0xb6f8c56b {
		t.Fatalf("Pack(breakout rollout, %d bytes) = compressed %v, %d bytes, crc %#08x; want true, 10960, 0xb6f8c56b",
			len(raw), compressed, len(framed), crc)
	}
}

// packSink keeps BenchmarkPackDenseWeights' result live.
var packSink []byte

// BenchmarkPackDenseWeights frames a dense weight snapshot, the body of every
// weight-plane resync.
func BenchmarkPackDenseWeights(b *testing.B) {
	raw := denseWeightsBody(b)
	c := NewCompressor()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packSink, _ = c.Pack(raw)
	}
}

// shiftedBody hand-encodes a shifted rollout of steps frame-only steps: the
// first sends first whole as an n×h×w stack, every later one claims to shift
// it and carries carried bytes. The logical length is left 0.
func shiftedBody(h, w, n, steps int, first []byte, carried int) []byte {
	out := append([]byte{tagRolloutShifted}, make([]byte, shiftHeader)...)
	out = putU32(out, 1)
	out = putU64(out, 1)
	out = putU32(out, uint32(steps))
	for i := 0; i < steps; i++ {
		kind, frame := obsFrame, first
		if i > 0 {
			kind, frame = obsFrame|obsShifted, make([]byte, carried)
		}
		out = append(out, kind)
		out = putU32(out, uint32(h))
		out = putU32(out, uint32(w))
		out = putU32(out, uint32(n))
		out = putBytes(out, frame)
		out = append(out, make([]byte, minStepBytes-1)...) // zero scalars, no action vector, no logits
	}
	return append(out, obsNone)
}

// decodeAllocBound is the most Unmarshal may allocate for rollout body data:
// the frame and float bytes it carries, which are fewer than its length, one
// stepAllocBound for each step it declares and a constant.
func decodeAllocBound(data []byte) uint64 {
	const stepAllocBound = 256 // the decoded step struct and its small slices' rounding
	at := 1 + 4 + 8            // the step count: after the tag, explorer ID and weights version
	if data[0] == tagRolloutShifted {
		at += shiftHeader
	}
	steps := 0
	if len(data) >= at+4 {
		steps = min(int(binary.LittleEndian.Uint32(data[at:])), len(data)/minStepBytes)
	}
	return uint64(len(data) + stepAllocBound*(steps+1) + 16<<10)
}

// decodeAllocs unmarshals data and reports how many bytes that allocated.
func decodeAllocs(data []byte) (any, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, err := Unmarshal(data)
	runtime.ReadMemStats(&after)
	return body, after.TotalAlloc - before.TotalAlloc, err
}

// TestRolloutDecodeBoundsAllocation: a shifted stack takes its length from
// its predecessor, so a small payload could claim a vast decoded rollout. A
// shift without a predecessor, one that does not carry exactly one H×W frame,
// one whose predecessor has another length, and one deeper than
// maxShiftFrames are refused before the frames are allocated; the deepest
// stacks that are accepted decode into the frame bytes the payload carries.
// Either way decoding allocates no more than the payload's length plus a
// constant per step (decodeAllocBound).
func TestRolloutDecodeBoundsAllocation(t *testing.T) {
	noPredecessor, err := Marshal(stackedBatch(rand.New(rand.NewSource(1)), 12, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	noPredecessor[1+shiftHeader+16] |= obsShifted // the first step's kind
	for name, raw := range map[string][]byte{
		"no predecessor":             noPredecessor,
		"carried frame not H×W":      shiftedBody(6, 7, 4, 8, make([]byte, 4*6*7), 6*7+1),
		"predecessor length":         shiftedBody(6, 7, 4, 8, make([]byte, 3*6*7), 6*7),
		"deeper than maxShiftFrames": shiftedBody(1, 1, 1<<20, 10_000, make([]byte, 1<<20), 1), // 10 GB decoded
	} {
		_, n, err := decodeAllocs(raw)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: Unmarshal = %v, want ErrBadPayload", name, err)
		}
		if bound := decodeAllocBound(raw); n > bound {
			t.Fatalf("%s: refusing a %d-byte payload allocated %d bytes, over %d", name, len(raw), n, bound)
		}
	}

	const h, w, steps = 64, 64, 64
	raw := shiftedBody(h, w, maxShiftFrames, steps, make([]byte, maxShiftFrames*h*w), h*w)
	elided := (steps - 1) * (maxShiftFrames - 1) * h * w
	binary.LittleEndian.PutUint64(raw[1:], uint64(len(raw)-shiftHeader+elided))
	body, n, err := decodeAllocs(raw)
	if err != nil {
		t.Fatalf("deepest accepted stacks: %v", err)
	}
	if got := body.(*rollout.Batch).Steps[steps-1].Obs.Frame; len(got) != maxShiftFrames*h*w {
		t.Fatalf("last stack decoded to %d bytes, want %d", len(got), maxShiftFrames*h*w)
	}
	if bound := decodeAllocBound(raw); n > bound {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes, over %d", len(raw), n, bound)
	}
}

// FuzzUnmarshalRollout: arbitrary rollout bodies either fail with
// ErrBadPayload or decode to a rollout that re-marshals to exactly the bytes
// it came from — never a panic, and never a body the encoder would write
// differently. Either way decoding allocates within decodeAllocBound, and a
// decoded rollout's stacks share their frames (checkStacksShareFrames).
func FuzzUnmarshalRollout(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	var seeds [][]byte
	for _, b := range []*rollout.Batch{
		breakoutBatch(f),
		sampleBatch(rng, 6, false),
		stackedBatch(rng, 8, 4, true, 3),
	} {
		raw, err := Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	small := seeds[2]
	flipped := bytes.Clone(small)
	flipped[len(flipped)/2] ^= 0x10
	seeds = append(seeds, small[:len(small)/2], small[:len(small)-1], flipped)
	for _, raw := range seeds {
		f.Add(raw[0] == tagRolloutShifted, raw[1:])
	}
	f.Fuzz(func(t *testing.T, shifted bool, body []byte) {
		tag := tagRollout
		if shifted {
			tag = tagRolloutShifted
		}
		data := append([]byte{tag}, body...)
		b, n, err := decodeAllocs(data)
		if bound := decodeAllocBound(data); n > bound {
			t.Fatalf("decoding a %d-byte body allocated %d bytes, over %d", len(data), n, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("Unmarshal error %v is not ErrBadPayload", err)
			}
			return
		}
		again, err := Marshal(b)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%d-byte body decodes to a rollout that re-marshals to %d other bytes", len(data), len(again))
		}
		checkStacksShareFrames(t, b.(*rollout.Batch))
	})
}

// TestSkipChargesUnpackDelay: Skip charges the receive-side plane delay
// UnpackInto would, for a raw and for a compressed frame, without decoding.
// At this rate a 64 KiB body costs 20 ms.
func TestSkipChargesUnpackDelay(t *testing.T) {
	const want = 20 * time.Millisecond
	raw := make([]byte, 64<<10) // zeros: compressible
	c := Compressor{PackNsPerKB: int(8 * int64(want) * 1024 / int64(len(raw)))}
	rawFrame, _ := Compressor{}.Pack(raw)
	lz4Frame, compressed := Compressor{Threshold: 1}.Pack(raw)
	if !compressed {
		t.Fatal("zeros did not compress")
	}
	for _, tc := range []struct {
		name   string
		framed []byte
	}{{"raw", rawFrame}, {"lz4", lz4Frame}} {
		start := time.Now()
		c.Skip(tc.framed)
		if got := time.Since(start); got < want {
			t.Errorf("%s: Skip charged %v, want at least %v", tc.name, got, want)
		}
		start = time.Now()
		if _, err := c.UnpackInto(nil, tc.framed); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < want {
			t.Errorf("%s: UnpackInto charged %v, want at least %v", tc.name, got, want)
		}
	}
}
