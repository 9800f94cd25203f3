// Package serialize converts message bodies to and from bytes at the
// process boundary, with optional LZ4 compression above a size threshold —
// the "serialization & deserialization, compression & decompression" costs
// that XingTian moves off the critical path and prior frameworks pay
// serially.
//
// Encodings are hand-rolled over encoding/binary (no reflection): message
// bodies dominate the data plane, so the codec must be cheap and
// allocation-conscious.
package serialize

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"xingtian/internal/env"
	"xingtian/internal/lz4"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// ErrBadPayload is returned when decoding malformed or unknown payloads.
var ErrBadPayload = errors.New("serialize: bad payload")

// Payload type tags on the wire.
const (
	tagRollout byte = iota + 1
	tagWeights
	tagStats
	tagControl
	tagDummy
	tagWeightsDelta
)

// Marshal encodes a message body into a freshly allocated byte slice.
// Supported bodies are *rollout.Batch, *message.WeightsPayload,
// *message.StatsPayload, *message.ControlPayload, and *message.DummyPayload.
// Hot paths should prefer MarshalPooled, which reuses grown buffers.
func Marshal(body any) ([]byte, error) {
	return MarshalAppend(make([]byte, 0, SizeHint(body)), body)
}

// MarshalAppend appends body's encoding to dst and returns the extended
// slice. It is the allocation-free core of Marshal/MarshalPooled.
func MarshalAppend(dst []byte, body any) ([]byte, error) {
	switch b := body.(type) {
	case *rollout.Batch:
		return appendRollout(dst, b), nil
	case *message.WeightsPayload:
		return appendWeights(dst, b), nil
	case *message.WeightsDeltaPayload:
		return appendWeightsDelta(dst, b), nil
	case *message.StatsPayload:
		return appendStats(dst, b), nil
	case *message.ControlPayload:
		return appendControl(dst, b), nil
	case *message.DummyPayload:
		dst = append(dst, tagDummy)
		return append(dst, b.Data...), nil
	default:
		return nil, fmt.Errorf("serialize: unsupported body type %T: %w", body, ErrBadPayload)
	}
}

// MarshalPooled encodes a message body into a pooled buffer. The caller
// owns the returned slice and must hand it back with FreeBuf once its
// contents are no longer needed (see the ownership rules in buffer.go).
// On error no buffer is retained.
func MarshalPooled(body any) ([]byte, error) {
	out, err := MarshalAppend(GetBuf(SizeHint(body)), body)
	if err != nil {
		FreeBuf(out)
		return nil, err
	}
	return out, nil
}

// SizeHint bounds body's encoded size from above (closely: within a few
// dozen bytes per rollout step) so a pooled marshal buffer never has to grow:
// growing copies the encoding so far and abandons the pooled buffer.
func SizeHint(body any) int {
	switch b := body.(type) {
	case *rollout.Batch:
		// SizeBytes counts payload bytes and the fixed per-step scalars;
		// length prefixes and observation framing add at most 29 bytes a
		// step and 22 for the bootstrap observation.
		return 64 + b.SizeBytes() + 32*len(b.Steps)
	case *message.WeightsPayload:
		return 16 + 4*len(b.Data)
	case *message.WeightsDeltaPayload:
		n := 40
		if b.Scale > 0 {
			n += 6 * len(b.Q)
		} else {
			n += 9 * len(b.Values)
		}
		return n
	case *message.StatsPayload:
		return 96 + len(b.Node)
	case *message.ControlPayload:
		n := 48 + len(b.Peer)
		for k := range b.Hyperparams {
			n += 12 + len(k)
		}
		for k := range b.Acked {
			n += 12 + len(k)
		}
		return n
	case *message.DummyPayload:
		return 1 + len(b.Data)
	default:
		return minBufCap
	}
}

// Unmarshal decodes bytes produced by Marshal back into a typed body.
func Unmarshal(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty payload: %w", ErrBadPayload)
	}
	switch data[0] {
	case tagRollout:
		return unmarshalRollout(data[1:])
	case tagWeights:
		return unmarshalWeights(data[1:])
	case tagWeightsDelta:
		return unmarshalWeightsDelta(data[1:])
	case tagStats:
		return unmarshalStats(data[1:])
	case tagControl:
		return unmarshalControl(data[1:])
	case tagDummy:
		// One copy: the receiver thread "copies the message body to the
		// local buffer immediately" (paper §3.2.1); the object-store read
		// itself is zero-copy, this is the copy-out into the receive buffer.
		return &message.DummyPayload{Data: append([]byte(nil), data[1:]...)}, nil
	default:
		return nil, fmt.Errorf("unknown payload tag %d: %w", data[0], ErrBadPayload)
	}
}

// Low-level append helpers ----------------------------------------------------

func putU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func putU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func putF32(dst []byte, v float32) []byte {
	return putU32(dst, math.Float32bits(v))
}

func putF64(dst []byte, v float64) []byte {
	return putU64(dst, math.Float64bits(v))
}

func putF32s(dst []byte, vs []float32) []byte {
	dst = putU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = putF32(dst, v)
	}
	return dst
}

func putBytes(dst, b []byte) []byte {
	dst = putU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func putString(dst []byte, s string) []byte {
	dst = putU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// reader is a bounds-checked cursor over a payload.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.pos+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// view reads a length-prefixed field without copying: the result aliases the
// payload, so it must not outlive the call that was handed the payload.
func (r *reader) view() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) str() string { return string(r.view()) }

func (r *reader) f32s() []float32 {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.pos+4*n > len(r.data) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.data[r.pos:]))
		r.pos += 4
	}
	return out
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated payload at offset %d: %w", r.pos, ErrBadPayload)
	}
}

// Observation encoding ---------------------------------------------------------

const (
	obsNone  byte = 0
	obsVec   byte = 1
	obsFrame byte = 2
	obsBoth  byte = 3
)

func putObs(dst []byte, o env.Obs) []byte {
	switch {
	case o.Frame != nil && o.Vec != nil:
		dst = append(dst, obsBoth)
		dst = putU32(dst, uint32(o.FrameH))
		dst = putU32(dst, uint32(o.FrameW))
		dst = putU32(dst, uint32(o.FrameN))
		dst = putBytes(dst, o.Frame)
		dst = putF32s(dst, o.Vec)
	case o.Frame != nil:
		dst = append(dst, obsFrame)
		dst = putU32(dst, uint32(o.FrameH))
		dst = putU32(dst, uint32(o.FrameW))
		dst = putU32(dst, uint32(o.FrameN))
		dst = putBytes(dst, o.Frame)
	case o.Vec != nil:
		dst = append(dst, obsVec)
		dst = putF32s(dst, o.Vec)
	default:
		dst = append(dst, obsNone)
	}
	return dst
}

// obs decodes one observation. Its Frame is a view into the payload:
// unmarshalRollout moves every frame of a body into one allocation of their
// exact total size once it knows that size.
func (r *reader) obs() env.Obs {
	switch r.byte() {
	case obsBoth:
		o := env.Obs{}
		o.FrameH = int(r.u32())
		o.FrameW = int(r.u32())
		o.FrameN = int(r.u32())
		o.Frame = r.view()
		o.Vec = r.f32s()
		return o
	case obsFrame:
		o := env.Obs{}
		o.FrameH = int(r.u32())
		o.FrameW = int(r.u32())
		o.FrameN = int(r.u32())
		o.Frame = r.view()
		return o
	case obsVec:
		return env.Obs{Vec: r.f32s()}
	default:
		return env.Obs{}
	}
}

// Rollout batch ----------------------------------------------------------------

func appendRollout(out []byte, b *rollout.Batch) []byte {
	out = append(out, tagRollout)
	out = putU32(out, uint32(b.ExplorerID))
	out = putU64(out, uint64(b.WeightsVersion))
	out = putU32(out, uint32(len(b.Steps)))
	for i := range b.Steps {
		s := &b.Steps[i]
		out = putObs(out, s.Obs)
		out = putU32(out, uint32(s.Action))
		out = putF32s(out, s.ActionVec)
		out = putF32(out, s.Reward)
		if s.Done {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = putF32(out, s.Value)
		out = putF32(out, s.LogProb)
		out = putF32s(out, s.Logits)
	}
	out = putObs(out, b.BootstrapObs)
	return out
}

func unmarshalRollout(data []byte) (*rollout.Batch, error) {
	r := &reader{data: data}
	b := &rollout.Batch{
		ExplorerID:     int32(r.u32()),
		WeightsVersion: int64(r.u64()),
	}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n > len(data) { // each step takes >1 byte; cheap sanity bound
		return nil, fmt.Errorf("rollout step count %d: %w", n, ErrBadPayload)
	}
	if n > 0 {
		b.Steps = make([]rollout.Step, n)
	}
	for i := 0; i < n; i++ {
		s := &b.Steps[i]
		s.Obs = r.obs()
		s.Action = int32(r.u32())
		s.ActionVec = r.f32s()
		s.Reward = r.f32()
		s.Done = r.byte() == 1
		s.Value = r.f32()
		s.LogProb = r.f32()
		s.Logits = r.f32s()
	}
	b.BootstrapObs = r.obs()
	if r.err != nil {
		return nil, r.err
	}

	// Copy the frames out of the payload into one backing array (81
	// allocations of 28 KB each for an Atari rollout otherwise). Each frame
	// is capacity-capped so appending to one reallocates instead of running
	// into its neighbour, and a zero-length frame stays nil, which is how
	// putObs tells "no frame" apart.
	total := len(b.BootstrapObs.Frame)
	for i := range b.Steps {
		total += len(b.Steps[i].Obs.Frame)
	}
	arena := make([]byte, total)
	own := func(frame *[]byte) {
		n := copy(arena, *frame)
		if n == 0 {
			*frame = nil
			return
		}
		*frame, arena = arena[:n:n], arena[n:]
	}
	for i := range b.Steps {
		own(&b.Steps[i].Obs.Frame)
	}
	own(&b.BootstrapObs.Frame)
	return b, nil
}

// Weights ------------------------------------------------------------------------

func appendWeights(out []byte, w *message.WeightsPayload) []byte {
	out = append(out, tagWeights)
	out = putU64(out, uint64(w.Version))
	out = putF32s(out, w.Data)
	return out
}

func unmarshalWeights(data []byte) (*message.WeightsPayload, error) {
	r := &reader{data: data}
	w := &message.WeightsPayload{Version: int64(r.u64()), Data: r.f32s()}
	if r.err != nil {
		return nil, r.err
	}
	return w, nil
}

// Stats --------------------------------------------------------------------------

func appendStats(out []byte, s *message.StatsPayload) []byte {
	out = append(out, tagStats)
	out = putString(out, s.Node)
	out = putU64(out, uint64(s.Episodes))
	out = putF64(out, s.MeanReturn)
	out = putU64(out, uint64(s.StepsGenerated))
	out = putU64(out, uint64(s.StepsConsumed))
	out = putU64(out, uint64(s.TrainIters))
	out = putU64(out, uint64(s.UnixNanos))
	return out
}

func unmarshalStats(data []byte) (*message.StatsPayload, error) {
	r := &reader{data: data}
	s := &message.StatsPayload{
		Node:           r.str(),
		Episodes:       int64(r.u64()),
		MeanReturn:     r.f64(),
		StepsGenerated: int64(r.u64()),
		StepsConsumed:  int64(r.u64()),
		TrainIters:     int64(r.u64()),
		UnixNanos:      int64(r.u64()),
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// Control ------------------------------------------------------------------------

// appendControl writes the payload's maps in ascending key order, so equal
// payloads marshal to equal bytes.
func appendControl(out []byte, c *message.ControlPayload) []byte {
	out = append(out, tagControl, byte(c.Kind))
	out = putU32(out, uint32(len(c.Hyperparams)))
	for _, k := range sortedKeys(c.Hyperparams) {
		out = putString(out, k)
		out = putF64(out, c.Hyperparams[k])
	}
	out = putU32(out, uint32(len(c.Acked)))
	for _, k := range sortedKeys(c.Acked) {
		out = putString(out, k)
		out = putU64(out, uint64(c.Acked[k]))
	}
	out = putString(out, c.Peer)
	out = putU64(out, c.LastRolloutID)
	out = putU64(out, uint64(int64(c.Machine)))
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func unmarshalControl(data []byte) (*message.ControlPayload, error) {
	r := &reader{data: data}
	c := &message.ControlPayload{Kind: message.ControlKind(r.byte())}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n > 0 {
		if n > len(data) {
			return nil, fmt.Errorf("control hyperparam count %d: %w", n, ErrBadPayload)
		}
		c.Hyperparams = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := r.str()
			v := r.f64()
			if r.err != nil {
				return nil, r.err
			}
			c.Hyperparams[k] = v
		}
	}
	na := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if na > 0 {
		if na > len(data) {
			return nil, fmt.Errorf("control ack count %d: %w", na, ErrBadPayload)
		}
		c.Acked = make(map[string]int64, na)
		for i := 0; i < na; i++ {
			k := r.str()
			v := int64(r.u64())
			if r.err != nil {
				return nil, r.err
			}
			c.Acked[k] = v
		}
	}
	c.Peer = r.str()
	c.LastRolloutID = r.u64()
	c.Machine = int(int64(r.u64()))
	if r.err != nil {
		return nil, r.err
	}
	return c, nil
}

// Compression ----------------------------------------------------------------------

// DefaultCompressionThreshold matches the paper: bodies larger than 1 MB are
// LZ4-compressed by default.
const DefaultCompressionThreshold = 1 << 20

// Compressor applies threshold-gated LZ4 framing to serialized bodies.
// A zero Compressor never compresses; use NewCompressor for the default.
type Compressor struct {
	// Threshold is the minimum body size to compress; <= 0 disables
	// compression entirely.
	Threshold int
	// PackNsPerKB emulates the send-side serialization plane: the paper's
	// artifact pays Python pickle + LZ4 costs of ~70-140 MB/s per stage,
	// while this Go codec runs >1 GB/s, which would hide the architectural
	// differences the paper measures. The cost is charged as *virtual time*
	// (sleep) rather than CPU spin so that concurrent senders overlap the
	// way they do on the paper's 72-core testbed even when this host has
	// fewer cores — see DESIGN.md, substitution table. The receive side
	// (shared-memory copy + LZ4 decompress) charges 1/8 of it. 0 disables.
	PackNsPerKB int
}

// PlaneDelay blocks for size×nsPerKB/1024 nanoseconds of emulated
// data-plane occupancy. Baseline frameworks call it directly to charge
// additional stages (e.g. Ray's object-store marshalling) that XingTian's
// zero-copy path does not have.
func PlaneDelay(size, nsPerKB int) {
	if nsPerKB <= 0 || size <= 0 {
		return
	}
	time.Sleep(time.Duration(int64(size) * int64(nsPerKB) / 1024))
}

// unpackNsPerKB is the receive-side emulation rate.
func (c Compressor) unpackNsPerKB() int { return c.PackNsPerKB / 8 }

// NewCompressor returns a compressor with the paper's 1 MB default.
func NewCompressor() Compressor {
	return Compressor{Threshold: DefaultCompressionThreshold}
}

// Frame flags.
const (
	frameRaw byte = 0
	frameLZ4 byte = 1
)

// lz4FrameHeader is the flag byte plus the 8-byte raw length that precede
// the LZ4 block of a compressed frame.
const lz4FrameHeader = 9

// packProbeBytes is the head of a body Pack compresses before the whole: a
// body whose head does not shrink (a dense float weight snapshot) is framed
// raw for the price of compressing 64 KiB instead of all of it.
const packProbeBytes = 64 << 10

// Pack frames raw bytes for the object store, compressing when raw meets the
// threshold and compression actually shrinks it — first its head, then the
// whole. It returns the framed body and whether compression was applied. The
// result is a fresh allocation of exactly its length (the store keeps it and
// accounts for it by length); the worst-case-sized compression scratch, which
// the probe borrows too, is pooled and never escapes.
func (c Compressor) Pack(raw []byte) ([]byte, bool) {
	PlaneDelay(len(raw), c.PackNsPerKB)
	if c.Threshold > 0 && len(raw) >= c.Threshold {
		scratch := GetBuf(lz4FrameHeader + lz4.CompressBound(len(raw)))
		if len(raw) <= packProbeBytes || len(lz4.Compress(scratch, raw[:packProbeBytes])) < packProbeBytes {
			scratch = append(scratch, frameLZ4)
			scratch = binary.LittleEndian.AppendUint64(scratch, uint64(len(raw)))
			scratch = lz4.Compress(scratch, raw)
			if len(scratch) < len(raw)+lz4FrameHeader {
				out := make([]byte, len(scratch))
				copy(out, scratch)
				FreeBuf(scratch)
				return out, true
			}
		}
		FreeBuf(scratch)
	}
	out := make([]byte, 0, len(raw)+1)
	out = append(out, frameRaw)
	return append(out, raw...), false
}

// Unpack reverses Pack on behalf of a compressor, charging the same
// emulation work as Pack did. A decompressed result is the caller's to keep.
func (c Compressor) Unpack(framed []byte) ([]byte, error) {
	return c.UnpackInto(nil, framed)
}

// UnpackInto is Unpack for callers that bring the decompression buffer: a
// compressed frame is decoded into buf's capacity when that holds
// UnpackedLen(framed) bytes (into a fresh allocation when it does not); a raw
// frame is returned in place and buf is not touched. The result is valid
// only as long as both buf and framed are.
func (c Compressor) UnpackInto(buf, framed []byte) ([]byte, error) {
	raw, err := unpackInto(buf, framed)
	if err != nil {
		return nil, err
	}
	PlaneDelay(len(raw), c.unpackNsPerKB())
	return raw, nil
}

// Unpack reverses Pack, returning the original serialized body.
func Unpack(framed []byte) ([]byte, error) {
	return unpackInto(nil, framed)
}

// UnpackedLen reports the buffer capacity UnpackInto needs to decode framed
// without allocating: the raw length of a compressed frame, 0 for a raw frame
// and for a malformed one (which UnpackInto then rejects).
func UnpackedLen(framed []byte) int {
	if len(framed) == 0 || framed[0] != frameLZ4 {
		return 0
	}
	rawLen, err := lz4FrameRawLen(framed)
	if err != nil {
		return 0
	}
	return int(rawLen)
}

// lz4FrameRawLen reads the raw length a compressed frame declares.
func lz4FrameRawLen(framed []byte) (uint64, error) {
	if len(framed) < lz4FrameHeader {
		return 0, fmt.Errorf("truncated lz4 frame: %w", ErrBadPayload)
	}
	rawLen := binary.LittleEndian.Uint64(framed[1:lz4FrameHeader])
	if rawLen > 1<<32 {
		return 0, fmt.Errorf("implausible frame size %d: %w", rawLen, ErrBadPayload)
	}
	return rawLen, nil
}

func unpackInto(buf, framed []byte) ([]byte, error) {
	if len(framed) == 0 {
		return nil, fmt.Errorf("empty frame: %w", ErrBadPayload)
	}
	switch framed[0] {
	case frameRaw:
		return framed[1:], nil
	case frameLZ4:
		rawLen, err := lz4FrameRawLen(framed)
		if err != nil {
			return nil, err
		}
		var out []byte
		if uint64(cap(buf)) >= rawLen {
			out = buf[:rawLen]
		} else {
			out = make([]byte, rawLen)
		}
		n, err := lz4.Decompress(out, framed[lz4FrameHeader:])
		if err != nil {
			return nil, fmt.Errorf("lz4 frame: %w", err)
		}
		if uint64(n) != rawLen {
			return nil, fmt.Errorf("lz4 frame decoded %d of %d bytes: %w", n, rawLen, ErrBadPayload)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown frame flag %d: %w", framed[0], ErrBadPayload)
	}
}
