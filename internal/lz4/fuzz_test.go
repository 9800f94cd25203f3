package lz4

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzLZ4RoundTrip checks Compress→Decompress is the identity for arbitrary
// inputs, that compressed output respects CompressBound, that the
// byte-at-a-time oracle decodes the block to the same bytes, that Compress
// emits compressOracle's block byte for byte, and that CompressProbe, at a
// probe length taken from the input, either gives up or emits that block
// too. The seeds past the fixed ones put a single mismatch at every offset
// 0–135 past the first extendBlock boundary of a long match, and end long
// matches in the last-literals zone at every offset of a block.
func FuzzLZ4RoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("hello world, hello world, hello world"))
	f.Add(bytes.Repeat([]byte{0xAB}, 1000))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 500))
	f.Add([]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 40)))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	for _, src := range longMatchSeeds() {
		f.Add(src)
	}
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

		want := compressOracle(nil, src)
		if !bytes.Equal(comp, want) {
			t.Fatalf("Compress emitted %d bytes, differing from the oracle's %d-byte block", len(comp), len(want))
		}
		probe := len(src) / 2
		if len(src) > 0 {
			probe = int(src[0]) * len(src) / 255
		}
		prefix := []byte("dst")
		got, ok := CompressProbe(prefix, src, probe)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("CompressProbe(probe %d) overwrote dst's prefix", probe)
		}
		if ok && !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("CompressProbe(probe %d) kept a %d-byte block, differing from the oracle's %d bytes",
				probe, len(got)-len(prefix), len(want))
		}
	})
}

// longMatchSeeds returns inputs whose long match ends at every offset the
// block compare and the word-wise finish can meet: a 300-byte random run
// repeated with one byte flipped at each offset 0–135 past the match's
// first block boundary, and the run repeated up to the end of the input so
// the last-literals zone cuts the match at every length from one word to a
// word past the first block.
func longMatchSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	run := make([]byte, 300)
	rng.Read(run)
	// The repeat's match covers minMatch plus one word before its first
	// block compare.
	boundary := minMatch + 8 + extendBlock
	var seeds [][]byte
	for off := 0; off <= 135; off++ {
		src := append(append([]byte(nil), run...), run...)
		src[len(run)+boundary+off] ^= 0xFF
		seeds = append(seeds, src)
	}
	for n := boundary - extendBlock; n <= boundary+lastLits+8; n++ {
		seeds = append(seeds, append(append([]byte(nil), run...), run[:n]...))
	}
	return seeds
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
