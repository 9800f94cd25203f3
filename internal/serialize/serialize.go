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
	"bytes"
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
	// tagRolloutShifted is a rollout with at least one shifted frame stack
	// (see appendRollout). Its tag is followed by its logical length.
	tagRolloutShifted
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
// dozen bytes per rollout step, for a rollout whose frame stacks are written
// whole) so a pooled marshal buffer never has to grow: growing copies the
// encoding so far and abandons the pooled buffer.
func SizeHint(body any) int {
	switch b := body.(type) {
	case *rollout.Batch:
		// SizeBytes counts payload bytes and the fixed per-step scalars;
		// length prefixes and observation framing add at most 29 bytes a
		// step and 22 for the bootstrap observation. That bounds the
		// logical length with 41 bytes to spare, and a shifted encoding
		// exceeds its logical length by at most its 8-byte header.
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

// Unmarshal decodes bytes produced by Marshal back into a typed body, which
// shares no memory with data. A rollout's frame stacks are read-only: a
// shifted stack shares its first N−1 frames with its predecessor, as the
// arcade games' stacks do (env.Obs.Frame), so a caller that writes one must
// Clone the observation first.
func Unmarshal(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty payload: %w", ErrBadPayload)
	}
	switch data[0] {
	case tagRollout:
		return unmarshalRollout(data[1:], false)
	case tagRolloutShifted:
		return unmarshalRollout(data[1:], true)
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
	if r.err != nil || n < 0 || n > len(r.data)-r.pos {
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
	if r.err != nil || n < 0 || n > (len(r.data)-r.pos)/4 {
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

// flag reads a byte that must be 0 or 1.
func (r *reader) flag() bool {
	b := r.byte()
	if b > 1 {
		r.invalid("flag byte %d", b)
	}
	return b == 1
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated payload at offset %d: %w", r.pos, ErrBadPayload)
	}
}

// invalid records a value no encoder writes.
func (r *reader) invalid(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d: %w", fmt.Sprintf(format, args...), r.pos, ErrBadPayload)
	}
}

// Observation encoding ---------------------------------------------------------

const (
	obsNone  byte = 0
	obsVec   byte = 1
	obsFrame byte = 2
	obsBoth  byte = 3
	// obsShifted, or'd onto obsFrame or obsBoth inside a shifted rollout,
	// marks a frame stack that shifts the previous observation's (shifts):
	// only its newest frame follows its geometry.
	obsShifted byte = 4
)

// maxShiftFrames is the deepest frame stack the codec shifts. Decoded frame
// storage is the frame bytes a payload carries whatever the stacks' depth
// (unmarshalRollout), so this is a plausibility cap only: on the geometry a
// shifted stack may claim, and on the logical length LogicalLen believes.
const maxShiftFrames = 16

// shifts reports whether o's frame stack is prev's shifted by one frame: the
// same geometry, N ≥ 2 whole H×W frames, and o's first N−1 frames equal to
// prev's last N−1. Stacks are ordered oldest first, so o's newest frame is
// its last.
func shifts(prev, o *env.Obs) bool {
	n, k := len(o.Frame), o.FrameN
	if k < 2 || k > maxShiftFrames || n == 0 || n%k != 0 || o.FrameH*o.FrameW != n/k {
		return false
	}
	hw := n / k
	return prev.FrameH == o.FrameH && prev.FrameW == o.FrameW && prev.FrameN == k &&
		len(prev.Frame) == n && bytes.Equal(o.Frame[:n-hw], prev.Frame[hw:])
}

// putObs appends o. A frame stack that shifts prev's (prev may be nil) is
// written as its newest frame alone, under an obsShifted kind; putObs
// reports how many stack bytes that left out.
func putObs(dst []byte, o, prev *env.Obs) ([]byte, int) {
	if o.Frame == nil {
		if o.Vec == nil {
			return append(dst, obsNone), 0
		}
		return putF32s(append(dst, obsVec), o.Vec), 0
	}
	kind, frame, elided := obsFrame, o.Frame, 0
	if o.Vec != nil {
		kind = obsBoth
	}
	if prev != nil && shifts(prev, o) {
		kind |= obsShifted
		elided = len(frame) - len(frame)/o.FrameN
		frame = frame[elided:]
	}
	dst = append(dst, kind)
	dst = putU32(dst, uint32(o.FrameH))
	dst = putU32(dst, uint32(o.FrameW))
	dst = putU32(dst, uint32(o.FrameN))
	dst = putBytes(dst, frame)
	if o.Vec != nil {
		dst = putF32s(dst, o.Vec)
	}
	return dst, elided
}

// obs decodes one observation, and whether it is a shifted stack, which
// only a shifted rollout may hold. Its Frame is a view into the payload — of
// the newest frame alone for a shifted stack: unmarshalRollout moves every
// frame into one allocation once it knows their total size. A Vec that was
// sent is never nil, even when empty, so it re-marshals as it came.
func (r *reader) obs(shiftedRollout bool) (o env.Obs, shifted bool) {
	kind := r.byte()
	if shiftedRollout && (kind == obsFrame|obsShifted || kind == obsBoth|obsShifted) {
		kind, shifted = kind&^obsShifted, true
	}
	switch kind {
	case obsNone:
	case obsVec:
		o.Vec = r.vec()
	case obsFrame, obsBoth:
		o.FrameH = int(r.u32())
		o.FrameW = int(r.u32())
		o.FrameN = int(r.u32())
		o.Frame = r.view()
		if kind == obsBoth {
			o.Vec = r.vec()
		}
	default:
		r.invalid("observation kind %d", kind)
	}
	return o, shifted
}

// vec reads an observation vector that was sent: non-nil even when empty.
func (r *reader) vec() []float32 {
	if v := r.f32s(); v != nil {
		return v
	}
	return []float32{}
}

// Rollout batch ----------------------------------------------------------------

// shiftHeader is what a shifted rollout adds to its encoding: the logical
// length after its tag.
const shiftHeader = 8

// appendRollout appends b. An arcade observation stacks the last N frames,
// so it repeats N−1 frames of the observation before it: such a stack is
// written as its newest frame alone (putObs). The first one retags the
// rollout tagRolloutShifted and puts its logical length — its length with
// every stack written whole (LogicalLen) — after the tag. A rollout with no
// shifted stack, every vector rollout among them, keeps the tagRollout
// encoding: no header, no obsShifted kind.
func appendRollout(out []byte, b *rollout.Batch) []byte {
	start := len(out)
	out = append(out, tagRollout)
	out = putU32(out, uint32(b.ExplorerID))
	out = putU64(out, uint64(b.WeightsVersion))
	out = putU32(out, uint32(len(b.Steps)))
	var prev *env.Obs
	elided := 0
	for i := range b.Steps {
		s := &b.Steps[i]
		out, elided = putRolloutObs(out, start, &s.Obs, prev, elided)
		prev = &s.Obs
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
	out, elided = putRolloutObs(out, start, &b.BootstrapObs, prev, elided)
	if elided > 0 {
		binary.LittleEndian.PutUint64(out[start+1:], uint64(len(out)-start-shiftHeader+elided))
	}
	return out
}

// putRolloutObs is putObs inside the rollout whose tag is out[start] and
// whose stacks so far left out elided bytes. The first shifted stack retags
// the rollout and makes room for the logical length after the tag.
func putRolloutObs(out []byte, start int, o, prev *env.Obs, elided int) ([]byte, int) {
	out, n := putObs(out, o, prev)
	if n > 0 && elided == 0 {
		out[start] = tagRolloutShifted
		var logical [shiftHeader]byte
		out = slices.Insert(out, start+1, logical[:]...)
	}
	return out, elided + n
}

// minStepBytes is the shortest encoding of a rollout step: an empty
// observation, no action vector or logits, and the fixed scalars.
const minStepBytes = 1 + 4 + 4 + 4 + 1 + 4 + 4 + 4

// unmarshalRollout decodes a rollout body after its tag. It accepts only what
// appendRollout writes, so a decoded body re-marshals to the same bytes.
// Every stack is vetted before the one allocation that holds the frame bytes
// the payload carries: a shifted stack must have a predecessor of its
// geometry and carry exactly one H×W frame (checkShift). A shifted stack is
// then a window onto that allocation, sharing its first N−1 frames with its
// predecessor (the read-only contract on env.Obs.Frame).
func unmarshalRollout(data []byte, shifted bool) (*rollout.Batch, error) {
	r := &reader{data: data}
	var logical uint64
	if shifted {
		logical = r.u64()
	}
	b := &rollout.Batch{
		ExplorerID:     int32(r.u32()),
		WeightsVersion: int64(r.u64()),
	}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n > len(data)/minStepBytes {
		return nil, fmt.Errorf("rollout step count %d: %w", n, ErrBadPayload)
	}
	if n > 0 {
		b.Steps = make([]rollout.Step, n)
	}
	// Observation i is step i's, and observation n the bootstrap one.
	at := func(i int) *env.Obs {
		if i == n {
			return &b.BootstrapObs
		}
		return &b.Steps[i].Obs
	}
	var isShifted []bool
	if shifted {
		isShifted = make([]bool, n+1)
	}
	var sh bool
	for i := 0; i < n; i++ {
		s := &b.Steps[i]
		if s.Obs, sh = r.obs(shifted); sh {
			isShifted[i] = true
		}
		s.Action = int32(r.u32())
		s.ActionVec = r.f32s()
		s.Reward = r.f32()
		s.Done = r.flag()
		s.Value = r.f32()
		s.LogProb = r.f32()
		s.Logits = r.f32s()
	}
	if b.BootstrapObs, sh = r.obs(shifted); sh {
		isShifted[n] = true
	}
	if r.err == nil && r.pos != len(data) {
		r.invalid("%d trailing bytes", len(data)-r.pos)
	}
	if r.err != nil {
		return nil, r.err
	}

	carried, elided, prevLen := 0, 0, 0
	for i := 0; i <= n; i++ {
		o := at(i)
		size := len(o.Frame)
		carried += size
		if shifted && isShifted[i] {
			if i == 0 {
				return nil, fmt.Errorf("first frame stack is shifted: %w", ErrBadPayload)
			}
			if err := checkShift(at(i-1), prevLen, o); err != nil {
				return nil, fmt.Errorf("frame stack %d: %w", i, err)
			}
			size = prevLen
			elided += size - len(o.Frame)
		}
		prevLen = size
	}
	if shifted && (elided == 0 || logical != uint64(len(data)+1-shiftHeader+elided)) {
		return nil, fmt.Errorf("shifted rollout of logical length %d, %d bytes elided: %w", logical, elided, ErrBadPayload)
	}

	// Move the carried frames, oldest first, into one array (81 allocations
	// of 28 KB each for an Atari rollout otherwise). A whole stack is
	// appended; a shifted one appends the frame it carried and becomes the
	// window that ends there, because its predecessor always ends at the
	// write cursor. Each stack is capacity-capped so appending to one
	// reallocates instead of running into its neighbour, and a zero-length
	// frame stays a non-nil empty one.
	arena := make([]byte, 0, carried)
	for i := 0; i <= n; i++ {
		o := at(i)
		switch {
		case shifted && isShifted[i]:
			arena = append(arena, o.Frame...)
			end := len(arena)
			o.Frame = arena[end-len(at(i-1).Frame) : end : end]
		case o.Frame != nil:
			start := len(arena)
			arena = append(arena, o.Frame...)
			o.Frame = arena[start:len(arena):len(arena)]
			if i > 0 && shifts(at(i-1), o) {
				return nil, fmt.Errorf("frame stack %d is sent whole but shifts its predecessor: %w", i, ErrBadPayload)
			}
		}
	}
	return b, nil
}

// checkShift vets shifted stack o, whose Frame is the newest frame it
// carries, against its predecessor p, whose stack decodes to pLen bytes.
func checkShift(p *env.Obs, pLen int, o *env.Obs) error {
	hw := len(o.Frame)
	switch {
	case o.FrameN < 2 || o.FrameN > maxShiftFrames:
		return fmt.Errorf("shifted stack of %d frames: %w", o.FrameN, ErrBadPayload)
	case hw == 0 || o.FrameH*o.FrameW != hw: // H, W < 2^32: the product cannot wrap to hw
		return fmt.Errorf("shifted stack carries %d bytes, not one %d×%d frame: %w", hw, o.FrameH, o.FrameW, ErrBadPayload)
	case p.FrameH != o.FrameH || p.FrameW != o.FrameW || p.FrameN != o.FrameN || pLen != hw*o.FrameN:
		return fmt.Errorf("shifted %d×%d×%d stack follows a %d×%d×%d stack of %d bytes: %w",
			o.FrameN, o.FrameH, o.FrameW, p.FrameN, p.FrameH, p.FrameW, pLen, ErrBadPayload)
	}
	return nil
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

// controlEntryMin is the fewest payload bytes one control map entry takes:
// a 4-byte key length (the key may be empty) and an 8-byte value. Both maps,
// hyperparams (string → f64) and acks (string → u64), encode that way.
const controlEntryMin = 4 + 8

// maxEntries is the most control map entries the unread bytes can hold. A
// declared count above it cannot be honest, so the decoder refuses it before
// sizing a map by it: the map's allocation stays proportional to the
// payload.
func (r *reader) maxEntries() int { return (len(r.data) - r.pos) / controlEntryMin }

func unmarshalControl(data []byte) (*message.ControlPayload, error) {
	r := &reader{data: data}
	c := &message.ControlPayload{Kind: message.ControlKind(r.byte())}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n != 0 {
		if n < 0 || n > r.maxEntries() {
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
	if na != 0 {
		if na < 0 || na > r.maxEntries() {
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

// packProbeBytes is where Pack's compression checks itself: a body whose
// first 64 KiB do not shrink (a dense float weight snapshot) is framed raw
// for the price of compressing 64 KiB instead of all of it.
const packProbeBytes = 64 << 10

// LogicalLen is the length raw, a body Marshal encoded, would have with
// every frame stack written whole: what a shifted rollout records after its
// tag, and len(raw) for every other body. Pack and UnpackInto judge the
// compression threshold and charge PlaneDelay on it, so shipping each frame
// once changes neither the paper's compression decision nor the emulated
// serialization cost. A recorded length beyond maxShiftFrames times raw's,
// which no valid body has, counts as len(raw); Unmarshal refuses such a body.
func LogicalLen(raw []byte) int {
	if len(raw) > 1+shiftHeader && raw[0] == tagRolloutShifted {
		if n := binary.LittleEndian.Uint64(raw[1:]); n <= maxShiftFrames*uint64(len(raw)) {
			return int(n)
		}
	}
	return len(raw)
}

// FramedLogicalLen is LogicalLen for a frame Pack returned: the flag byte
// plus the body's logical length for a raw frame, and a compressed frame's
// own length.
func FramedLogicalLen(framed []byte) int {
	if len(framed) > 0 && framed[0] == frameRaw {
		return 1 + LogicalLen(framed[1:])
	}
	return len(framed)
}

// Pack frames raw bytes for the object store, compressing when raw's logical
// length (LogicalLen) meets the threshold and compression actually shrinks
// it — first its head (lz4.CompressProbe at packProbeBytes), then the whole,
// in one pass. It returns the framed body and whether compression was
// applied. The result is a fresh allocation of exactly its length (the store
// keeps it and accounts for it by length); the worst-case-sized compression
// scratch is pooled and never escapes.
func (c Compressor) Pack(raw []byte) ([]byte, bool) {
	logical := LogicalLen(raw)
	PlaneDelay(logical, c.PackNsPerKB)
	if c.Threshold > 0 && logical >= c.Threshold {
		scratch := GetBuf(lz4FrameHeader + lz4.CompressBound(len(raw)))
		scratch = append(scratch, frameLZ4)
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(len(raw)))
		scratch, shrunk := lz4.CompressProbe(scratch, raw, packProbeBytes)
		if shrunk && len(scratch) < len(raw)+lz4FrameHeader {
			out := make([]byte, len(scratch))
			copy(out, scratch)
			FreeBuf(scratch)
			return out, true
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
	PlaneDelay(LogicalLen(raw), c.unpackNsPerKB())
	return raw, nil
}

// Skip charges the receive-side emulation UnpackInto would charge for
// framed, without decoding it: the cost of a body a receiver releases
// unread. A compressed frame is charged its raw length, which is its
// logical length for every body but a shifted rollout.
func (c Compressor) Skip(framed []byte) {
	if c.unpackNsPerKB() <= 0 {
		return
	}
	n := 0
	if len(framed) > 0 && framed[0] == frameRaw {
		n = LogicalLen(framed[1:])
	} else if rawLen, err := lz4FrameRawLen(framed); err == nil {
		n = int(rawLen)
	}
	PlaneDelay(n, c.unpackNsPerKB())
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

// maxLZ4Expansion bounds the raw bytes one byte of an LZ4 block can decode
// to. A sequence of L literals and a match whose length takes e extension
// bytes occupies at least L+3+e bytes (token, literals, 2-byte offset,
// extensions) and decodes to at most L+255e+18 (the 4-byte minimum match,
// the token's 15, 255 for each 0xFF extension byte and at most 254 for the
// last): 255× its size with 254L+747 bytes to spare. A final literals-only
// sequence decodes to fewer bytes than it occupies. So an n-byte block
// decodes to at most 255·n, and the constant term of the bound is 0. The
// densest block Compress emits, 4 MiB of zeros, expands 254.8×.
const maxLZ4Expansion = 255

// lz4FrameRawLen reads the raw length a compressed frame declares, and
// refuses one its block cannot decode to, so no caller sizes a buffer from
// a length a few forged bytes claim.
func lz4FrameRawLen(framed []byte) (uint64, error) {
	if len(framed) < lz4FrameHeader {
		return 0, fmt.Errorf("truncated lz4 frame: %w", ErrBadPayload)
	}
	rawLen := binary.LittleEndian.Uint64(framed[1:lz4FrameHeader])
	if rawLen > 1<<32 || rawLen > maxLZ4Expansion*uint64(len(framed)-lz4FrameHeader) {
		return 0, fmt.Errorf("implausible frame size %d for a %d-byte block: %w", rawLen, len(framed)-lz4FrameHeader, ErrBadPayload)
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
