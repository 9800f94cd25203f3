// Buffer pooling for the serialization plane.
//
// Marshal, LZ4 framing and unframing are on the per-message hot path of every
// explorer and learner thread; allocating fresh buffers per message makes the
// garbage collector a hidden serialization stage. The pool below recycles
// them so a steady-state channel moves bodies with zero allocations
// proportional to their size.
//
// # One pool, converging upward
//
// One sync.Pool serves 100-byte fabric frame headers and the 2.3 MB marshal
// buffers of frame rollouts alike, and any buffer at least as large as the
// request answers it.
// A popped buffer that is too short is dropped — not put back — and replaced
// by one that fits, so the pool converges on buffers that fit every size in
// circulation, as many of them as are ever held at once. (Putting the short
// buffer back, as this pool once did, made every large request pop it, re-file
// it and allocate afresh, and the pool grew until the next GC.) Fresh
// capacities are rounded up to a sixteenth of their power of two, not to the
// power of two itself: near-equal requests (a 1.20 MB dense weights body and
// its 1.21 MB worst-case compression scratch) become interchangeable for at
// most 1/16 extra memory, where power-of-two rounding would hand a 2 MB
// buffer to every 1.2 MB weights body.
//
// Segregating the pool by size class was measured and rejected (DESIGN.md
// §5d): under a collector that runs 150 times a second, sync.Pool only keeps
// what is touched every other cycle, and it is the small, frequent requests
// borrowing the large buffers that keep those alive between the rare large
// messages that need them.
//
// # Ownership rules (checked by xt-lint refbalance)
//
// A buffer obtained from GetBuf or MarshalPooled is OWNED by the caller and
// must be returned with FreeBuf on every path once the caller is done with
// its contents, exactly like an object-store reference must be Released.
// Hand-offs to a new owner are declared with `//lint:owns <reason>`. After
// FreeBuf the buffer may be reused by any other goroutine: never retain or
// read a slice that was freed. APIs that keep bytes beyond the call (e.g.
// objectstore.Put) must be given their own copy, never a pooled buffer.
//
// The pooled users, and who frees what:
//
//   - broker.Port.Send owns the marshal buffer from MarshalPooled and frees
//     it as soon as Pack has framed it, on the success and the error path.
//   - Compressor.Pack owns its LZ4 scratch buffer for the duration of the
//     call: it frees it after copying the compressed frame out at exact size,
//     and equally when compression did not shrink the body. Callers never see
//     pooled memory.
//   - appendWeightsDelta owns a delta's entry block and its LZ4 scratch and
//     frees both (deferred) once the block is copied into the encoding.
//   - broker.Port.materialize owns the decompression buffer it passes to
//     Compressor.UnpackInto and frees it (deferred) once Unmarshal has copied
//     everything out — also when unpacking or decoding fails.
//   - fabric owns its frame-header and frame-payload buffers for one
//     write/read and frees them on every exit of that call.
package serialize

import (
	"math/bits"
	"sync"
)

// minBufCap is the smallest capacity handed out.
const minBufCap = 4 << 10

// maxPooledCap bounds what FreeBuf keeps: buffers grown beyond this are
// dropped so one giant message doesn't pin megabytes in the pool forever.
const maxPooledCap = 8 << 20

// bufPool recycles marshal, framing and unframing buffers. Entries are
// *[]byte boxes so Put/Get do not re-box the slice header.
var bufPool sync.Pool

// boxPool recycles the emptied *[]byte boxes, so a steady-state
// GetBuf/FreeBuf cycle allocates nothing at all.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty (length-zero) buffer with capacity at least
// capHint. The caller owns it and must pass it to FreeBuf when done. A zero
// hint yields nil, which FreeBuf accepts.
func GetBuf(capHint int) []byte {
	if capHint <= 0 {
		return nil
	}
	if box, _ := bufPool.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		boxPool.Put(box)
		if cap(b) >= capHint {
			return b
		}
		// Too short: let it go (see the package comment).
	}
	if capHint < minBufCap {
		capHint = minBufCap
	}
	step := 1 << (bits.Len(uint(capHint)) - 1) >> 4
	return make([]byte, 0, (capHint+step-1)&^(step-1))
}

// FreeBuf returns a buffer obtained from GetBuf or MarshalPooled to the
// pool. The buffer must not be used after the call. Freeing nil or a buffer
// that out-grew the pooling bound is a no-op.
func FreeBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = b[:0]
	bufPool.Put(box)
}
