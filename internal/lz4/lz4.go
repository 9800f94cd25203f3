// Package lz4 implements the LZ4 block format (compression and
// decompression) from scratch using only the standard library.
//
// XingTian compresses message bodies larger than 1 MB with LZ4 before
// inserting them into the shared-memory object store; this package is that
// substrate. Only the block format is implemented (no frame format, no
// checksums) because blocks travel inside our own message envelope which
// already carries lengths.
//
// Format reference: https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md
package lz4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

var (
	// ErrCorrupt is returned when decompression encounters malformed input.
	ErrCorrupt = errors.New("lz4: corrupt input")
	// ErrDstTooSmall is returned when the destination buffer cannot hold the
	// decompressed output.
	ErrDstTooSmall = errors.New("lz4: destination too small")
)

const (
	minMatch    = 4  // smallest encodable match
	lastLits    = 5  // the final 5 bytes must be literals
	mfLimit     = 12 // matches must not start within 12 bytes of the end
	hashLog     = 16
	hashShift   = 32 - hashLog
	maxOffset   = 65535
	tokenMaxL   = 15 // literal-length nibble saturation
	tokenMaxM   = 15 // match-length nibble saturation
	hashPrime   = 2654435761
	skipTrigger = 6  // compression speed/ratio trade-off (like reference impl)
	shortMatch  = 16 // matches up to this long are copied by an inlined loop
)

// CompressBound returns the maximum compressed size for an input of length n.
func CompressBound(n int) int {
	return n + n/255 + 16
}

// hashTable maps each 4-byte hash to position+1 of a recent occurrence.
type hashTable [1 << hashLog]int32

// tablePool recycles the 256 KB hash table, which would otherwise be a fresh
// heap allocation per call (it is too large for the stack).
var tablePool = sync.Pool{New: func() any { return new(hashTable) }}

// Compress appends the LZ4 block encoding of src to dst and returns the
// extended buffer. Compressing empty input yields an empty block.
func Compress(dst, src []byte) []byte {
	dst, _ = CompressProbe(dst, src, len(src))
	return dst
}

// CompressProbe is Compress for a caller that only wants the block if src
// shrinks: the parse checks itself once, when it has covered probe bytes of
// src, and gives up — returning false and a dst holding a partial block —
// unless the bytes it has emitted so far, plus the worst-case encoding of
// its pending literal run, are fewer than the bytes covered. When it returns
// true, the block is Compress's byte for byte. A parse that finishes before
// probe bytes is never checked.
func CompressProbe(dst, src []byte, probe int) ([]byte, bool) {
	if len(src) == 0 {
		return dst, true
	}
	if len(src) < mfLimit+1 {
		return emitFinalLiterals(dst, src), true
	}
	table := tablePool.Get().(*hashTable)
	*table = hashTable{}
	dst, ok := compressBlock(dst, src, table, probe)
	tablePool.Put(table)
	return dst, ok
}

// extendBlock is the stride of the block compare a match that outlives its
// first word is extended with; bytes.Equal runs at vector width from there.
const extendBlock = 128

// compressBlock is CompressProbe for inputs long enough to hold a match,
// with a zeroed table.
func compressBlock(dst, src []byte, table *hashTable, probe int) ([]byte, bool) {
	start := len(dst)
	anchor := 0 // start of pending literals
	pos := 0
	limit := len(src) - mfLimit // last position a match may start at
	// stop is where the parse pauses to check itself against probe; once
	// it has (or never will), stop is limit and the check costs nothing.
	stop := limit
	if probe <= limit {
		stop = probe - 1
	}

	for {
		// Find a match by hashing 4 bytes with adaptive skipping.
		step := 1
		searches := 1 << skipTrigger
		matchPos := -1
		for {
			h := hash4(binary.LittleEndian.Uint32(src[pos:]))
			cand := int(table[h]) - 1
			table[h] = int32(pos + 1)
			if cand >= 0 && pos-cand <= maxOffset &&
				binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[pos:]) {
				matchPos = cand
				break
			}
			pos += step
			step = searches >> skipTrigger
			searches++
			if pos > stop {
				if stop < limit {
					if !shrinks(len(dst)-start, pos-anchor, pos) {
						return dst, false
					}
					stop = limit
				}
				if pos > limit {
					return emitFinalLiterals(dst, src[anchor:]), true
				}
			}
		}

		// Extend the match backwards over pending literals.
		for matchPos > 0 && pos > anchor && src[matchPos-1] == src[pos-1] {
			matchPos--
			pos--
		}

		// Extend forwards; the match may not run into the last-literals
		// zone. The first differing byte of two little-endian words is the
		// lowest set bit of their XOR. A match that agrees on the word after
		// its minimum is likely a long one (hundreds of bytes in a frame
		// rollout), so it is compared in blocks before the word-wise finish;
		// a shorter one never enters the block loop.
		matchLen := minMatch
		maxLen := len(src) - lastLits - pos
		if matchLen+8 <= maxLen {
			if x := binary.LittleEndian.Uint64(src[matchPos+matchLen:]) ^ binary.LittleEndian.Uint64(src[pos+matchLen:]); x != 0 {
				matchLen += bits.TrailingZeros64(x) >> 3
				maxLen = matchLen // found the end: skip the word and byte tails
			} else {
				matchLen += 8
				for matchLen+extendBlock <= maxLen &&
					bytes.Equal(src[matchPos+matchLen:matchPos+matchLen+extendBlock], src[pos+matchLen:pos+matchLen+extendBlock]) {
					matchLen += extendBlock
				}
			}
		}
		for matchLen+8 <= maxLen {
			x := binary.LittleEndian.Uint64(src[matchPos+matchLen:]) ^ binary.LittleEndian.Uint64(src[pos+matchLen:])
			if x != 0 {
				matchLen += bits.TrailingZeros64(x) >> 3
				maxLen = matchLen
				break
			}
			matchLen += 8
		}
		for matchLen < maxLen && src[matchPos+matchLen] == src[pos+matchLen] {
			matchLen++
		}

		dst = emitSequence(dst, src[anchor:pos], pos-matchPos, matchLen)
		pos += matchLen
		anchor = pos

		// Prime the table inside the match for future references.
		if pos <= limit {
			h := hash4(binary.LittleEndian.Uint32(src[pos-2:]))
			table[h] = int32(pos - 2 + 1)
		}
		if pos > stop {
			if stop < limit {
				if !shrinks(len(dst)-start, pos-anchor, pos) {
					return dst, false
				}
				stop = limit
			}
			if pos > limit {
				return emitFinalLiterals(dst, src[anchor:]), true
			}
		}
	}
}

// shrinks is CompressProbe's check: emitted bytes of block plus a pending
// run of lits literals, at lits + lits/255 + 1 bytes (token and length bytes
// included), are fewer than the covered bytes of input they encode.
func shrinks(emitted, lits, covered int) bool {
	return emitted+lits+lits/255+1 < covered
}

// hash4 maps a 4-byte window to a table slot.
func hash4(u uint32) uint32 {
	return (u * hashPrime) >> hashShift
}

// emitSequence writes one token + literals + offset + extended match length.
func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - minMatch
	token := byte(0)
	if litLen >= tokenMaxL {
		token = tokenMaxL << 4
	} else {
		token = byte(litLen) << 4
	}
	if ml >= tokenMaxM {
		token |= tokenMaxM
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= tokenMaxL {
		dst = appendLength(dst, litLen-tokenMaxL)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= tokenMaxM {
		dst = appendLength(dst, ml-tokenMaxM)
	}
	return dst
}

// emitFinalLiterals writes the trailing literals-only sequence.
func emitFinalLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen == 0 {
		return dst
	}
	if litLen >= tokenMaxL {
		dst = append(dst, tokenMaxL<<4)
		dst = appendLength(dst, litLen-tokenMaxL)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

// appendLength writes the LZ4 extended-length encoding (runs of 255 plus a
// terminator byte < 255).
func appendLength(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompress decodes an LZ4 block from src into dst, which must be exactly
// the original length. It returns the number of bytes written.
func Decompress(dst, src []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++

		// Literals.
		litLen := int(token >> 4)
		if litLen == tokenMaxL {
			n, used, err := readLength(src[si:])
			if err != nil {
				return 0, err
			}
			litLen += n
			si += used
		}
		if si+litLen > len(src) {
			return 0, fmt.Errorf("literal run past input end: %w", ErrCorrupt)
		}
		if di+litLen > len(dst) {
			return 0, fmt.Errorf("literal run: %w", ErrDstTooSmall)
		}
		copy(dst[di:], src[si:si+litLen])
		si += litLen
		di += litLen

		if si == len(src) {
			// Final literals-only sequence. A valid block decodes to exactly
			// len(dst) bytes; anything shorter is a truncated stream whose
			// zero-garbage tail callers trusting BodySize would consume.
			if di != len(dst) {
				return 0, fmt.Errorf("block decoded %d of %d bytes: %w", di, len(dst), ErrCorrupt)
			}
			return di, nil
		}

		// Match.
		if si+2 > len(src) {
			return 0, fmt.Errorf("truncated offset: %w", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if offset == 0 || offset > di {
			return 0, fmt.Errorf("offset %d at output %d: %w", offset, di, ErrCorrupt)
		}
		matchLen := int(token&0x0F) + minMatch
		if token&0x0F == tokenMaxM {
			n, used, err := readLength(src[si:])
			if err != nil {
				return 0, err
			}
			matchLen += n
			si += used
		}
		end := di + matchLen
		if end > len(dst) {
			return 0, fmt.Errorf("match run: %w", ErrDstTooSmall)
		}
		// A match may overlap its own output (offset < matchLen repeats the
		// last offset bytes), which is what a byte-forward copy produces.
		m := di - offset
		switch {
		case matchLen <= shortMatch:
			// Not worth a memmove call; sparse-delta blocks are all these.
			for ; di < end; di++ {
				dst[di] = dst[di-offset]
			}
		case offset >= matchLen:
			copy(dst[di:end], dst[m:di])
		default:
			// Overlapping: seed one period, then double the copied region.
			// Every source stays behind its destination and the distance
			// between them stays a multiple of the period.
			for n := copy(dst[di:end], dst[m:di]); n < matchLen; {
				n += copy(dst[di+n:end], dst[m:di+n])
			}
		}
		di = end
	}
	if di != len(dst) {
		return 0, fmt.Errorf("block decoded %d of %d bytes: %w", di, len(dst), ErrCorrupt)
	}
	return di, nil
}

// readLength decodes the extended-length byte run, returning the value and
// the number of bytes consumed.
func readLength(src []byte) (n, used int, err error) {
	for {
		if used >= len(src) {
			return 0, 0, fmt.Errorf("truncated length: %w", ErrCorrupt)
		}
		b := src[used]
		used++
		n += int(b)
		if b != 255 {
			return n, used, nil
		}
	}
}
