package lz4

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLZ4RoundTrip checks Compress→Decompress is the identity for arbitrary
// inputs, that compressed output respects CompressBound, and that the
// byte-at-a-time oracle decodes the block to the same bytes.
func FuzzLZ4RoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("hello world, hello world, hello world"))
	f.Add(bytes.Repeat([]byte{0xAB}, 1000))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 500))
	f.Add([]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 40)))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := Compress(nil, src)
		if len(comp) > CompressBound(len(src)) {
			t.Fatalf("compressed %d bytes to %d, above CompressBound %d",
				len(src), len(comp), CompressBound(len(src)))
		}
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		if n != len(src) || !bytes.Equal(dst, src) {
			t.Fatalf("round trip mismatch: n=%d want %d", n, len(src))
		}
		checkAgainstOracle(t, comp, len(src))
	})
}

// FuzzLZ4DecompressCorrupt feeds arbitrary bytes to Decompress with varying
// dst sizes: it must return an error or a full decode, never panic, overread,
// or report success with a short output — and must agree with the oracle on
// the outcome. The seeds include overlapping matches at offsets 1, 2, 3 and
// 7, each ending exactly at len(dst).
func FuzzLZ4DecompressCorrupt(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte{0x10, 'a', 0x00, 0x00}, uint16(64))
	f.Add([]byte{0xF0, 255, 255}, uint16(2048))
	f.Add([]byte{0xF0, 0x05}, uint16(64))
	f.Add(Compress(nil, []byte("seed corpus seed corpus seed corpus")), uint16(35))
	f.Add(Compress(nil, bytes.Repeat([]byte{7}, 300)), uint16(300))
	for _, offset := range []int{1, 2, 3, 7} {
		f.Add(emitSequence(nil, []byte("0123456"), offset, 50), uint16(57))
	}
	f.Fuzz(func(t *testing.T, garbage []byte, dstSize uint16) {
		dst := make([]byte, int(dstSize)%8192)
		n, err := Decompress(dst, garbage)
		if err == nil && n != len(dst) {
			t.Fatalf("Decompress reported success with %d of %d bytes written", n, len(dst))
		}
		checkAgainstOracle(t, garbage, len(dst))
	})
}
