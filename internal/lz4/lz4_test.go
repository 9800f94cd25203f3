package lz4

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

// decompressOracle is the decoder this package shipped before matches were
// copied with copy: one byte per iteration, so an overlapping match needs no
// special case. It is the reference the word-wise Decompress is checked
// against — same bytes on success, same error class on failure.
func decompressOracle(dst, src []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++

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
			if di != len(dst) {
				return 0, fmt.Errorf("block decoded %d of %d bytes: %w", di, len(dst), ErrCorrupt)
			}
			return di, nil
		}

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
		if di+matchLen > len(dst) {
			return 0, fmt.Errorf("match run: %w", ErrDstTooSmall)
		}
		for i := 0; i < matchLen; i++ {
			dst[di+i] = dst[di-offset+i]
		}
		di += matchLen
	}
	if di != len(dst) {
		return 0, fmt.Errorf("block decoded %d of %d bytes: %w", di, len(dst), ErrCorrupt)
	}
	return di, nil
}

// compressOracle is the compressor this package shipped before matches
// were extended in blocks: word-wise extension, a fresh zeroed table per
// call, no probe. Compress and every CompressProbe that does not give up
// must emit its block byte for byte.
func compressOracle(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	if len(src) < mfLimit+1 {
		return emitFinalLiterals(dst, src)
	}
	table := new(hashTable)
	anchor := 0
	pos := 0
	limit := len(src) - mfLimit
	for pos <= limit {
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
			if pos > limit {
				return emitFinalLiterals(dst, src[anchor:])
			}
		}
		for matchPos > 0 && pos > anchor && src[matchPos-1] == src[pos-1] {
			matchPos--
			pos--
		}
		matchLen := minMatch
		maxLen := len(src) - lastLits - pos
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
		if pos <= limit {
			h := hash4(binary.LittleEndian.Uint32(src[pos-2:]))
			table[h] = int32(pos - 2 + 1)
		}
	}
	return emitFinalLiterals(dst, src[anchor:])
}

// errClass folds an error to the sentinel callers can test for.
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCorrupt):
		return ErrCorrupt
	case errors.Is(err, ErrDstTooSmall):
		return ErrDstTooSmall
	default:
		return err
	}
}

// checkAgainstOracle decodes block into dstLen bytes with both decoders and
// fails unless they agree on the byte count, the error class and, when the
// decode succeeds, every output byte.
func checkAgainstOracle(t *testing.T, block []byte, dstLen int) {
	t.Helper()
	got, want := make([]byte, dstLen), make([]byte, dstLen)
	n, err := Decompress(got, block)
	wantN, wantErr := decompressOracle(want, block)
	if n != wantN || errClass(err) != errClass(wantErr) {
		t.Fatalf("Decompress = (%d, %v), oracle = (%d, %v)", n, err, wantN, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("Decompress output differs from the oracle's (%d bytes)", dstLen)
	}
}

// TestDecompressOverlapMatchesOracle covers every copy strategy of the
// decoder: offsets below, at and above the inlined-loop and doubling
// boundaries, with matches shorter than, equal to and far longer than the
// offset.
func TestDecompressOverlapMatchesOracle(t *testing.T) {
	lits := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, offset := range []int{1, 2, 3, 4, 7, 8, 15, 16, 17, 31, len(lits)} {
		for _, matchLen := range []int{4, 5, 15, 16, 17, 18, 19, 33, 64, 255, 1000, 70000} {
			// literals, one match, final literals
			block := emitFinalLiterals(emitSequence(nil, lits, offset, matchLen), []byte("tail!"))
			checkAgainstOracle(t, block, len(lits)+matchLen+5)
		}
	}
}

// TestDecompressMatchEndsAtDst: a block may end on a match whose last byte
// is dst's last byte (no trailing literals); one byte less of dst is
// ErrDstTooSmall, one more is a short decode.
func TestDecompressMatchEndsAtDst(t *testing.T) {
	lits := []byte("0123456789")
	for _, offset := range []int{1, 2, 3, 7, 10} {
		for _, matchLen := range []int{4, 16, 17, 40, 300} {
			block := emitSequence(nil, lits, offset, matchLen)
			full := len(lits) + matchLen
			for _, dstLen := range []int{full - 1, full, full + 1} {
				checkAgainstOracle(t, block, dstLen)
			}
			dst := make([]byte, full)
			if n, err := Decompress(dst, block); err != nil || n != full {
				t.Fatalf("offset %d len %d: Decompress = (%d, %v), want (%d, nil)", offset, matchLen, n, err, full)
			}
		}
	}
}

// TestGoldenBlock pins the format in both directions against a block the
// byte-at-a-time compressor produced from breakoutLike(8): the decoder must
// still read it, and the compressor must still emit it byte for byte — the
// word-wise match extension changes speed, not the parse, so wire sizes and
// anything already stored stay valid.
func TestGoldenBlock(t *testing.T) {
	text, err := os.ReadFile("testdata/breakout8.lz4.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	src := breakoutLike(8)
	dst := make([]byte, len(src))
	if n, err := Decompress(dst, golden); err != nil || n != len(src) {
		t.Fatalf("Decompress(golden) = (%d, %v), want (%d, nil)", n, err, len(src))
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("golden block decodes to different bytes than breakoutLike(8)")
	}
	if comp := Compress(nil, src); !bytes.Equal(comp, golden) {
		t.Fatalf("Compress(breakoutLike(8)) = %d bytes, differs from the %d-byte golden block", len(comp), len(golden))
	}
}

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	n, err := Decompress(dst, comp)
	if err != nil {
		t.Fatalf("Decompress(%d bytes): %v", len(src), err)
	}
	if n != len(src) {
		t.Fatalf("Decompress wrote %d bytes, want %d", n, len(src))
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch for %d-byte input", len(src))
	}
	return comp
}

func TestRoundTripEmpty(t *testing.T) {
	comp := Compress(nil, nil)
	if len(comp) != 0 {
		t.Fatalf("Compress(empty) = %d bytes, want 0", len(comp))
	}
	n, err := Decompress(nil, comp)
	if err != nil || n != 0 {
		t.Fatalf("Decompress(empty) = %d, %v", n, err)
	}
}

func TestRoundTripTiny(t *testing.T) {
	for n := 1; n <= 20; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		roundTrip(t, src)
	}
}

func TestRoundTripAllSame(t *testing.T) {
	src := bytes.Repeat([]byte{0xAB}, 100_000)
	comp := roundTrip(t, src)
	if len(comp) >= len(src)/100 {
		t.Fatalf("compressed %d bytes to %d; highly repetitive input should compress > 100x", len(src), len(comp))
	}
}

func TestRoundTripText(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 5000))
	comp := roundTrip(t, src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("compressed %d to %d; repetitive text should compress > 4x", len(src), len(comp))
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{13, 100, 4096, 1 << 16, 1 << 20} {
		src := make([]byte, n)
		rng.Read(src)
		comp := roundTrip(t, src)
		if len(comp) > CompressBound(n) {
			t.Fatalf("compressed size %d exceeds CompressBound(%d)=%d", len(comp), n, CompressBound(n))
		}
	}
}

func TestRoundTripStructuredFloats(t *testing.T) {
	// Simulates serialized DNN weights: small floats with shared exponent
	// bytes, moderately compressible.
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1<<20)
	for i := 0; i < len(src); i += 4 {
		src[i] = byte(rng.Intn(64))
		src[i+1] = 0
		src[i+2] = byte(rng.Intn(4))
		src[i+3] = 62
	}
	comp := roundTrip(t, src)
	if len(comp) >= len(src) {
		t.Fatalf("structured data did not compress: %d -> %d", len(src), len(comp))
	}
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// Period-1, 2, 3 repeats exercise the overlapping-copy path.
	for _, period := range []int{1, 2, 3, 4, 7} {
		pat := make([]byte, period)
		for i := range pat {
			pat[i] = byte(i + 1)
		}
		src := bytes.Repeat(pat, 3000/period+1)
		roundTrip(t, src)
	}
}

func TestDecompressCorruptOffset(t *testing.T) {
	// Token demands a match with offset 0 — invalid.
	src := []byte{0x10, 'a', 0x00, 0x00}
	dst := make([]byte, 64)
	if _, err := Decompress(dst, src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress invalid offset = %v, want ErrCorrupt", err)
	}
}

func TestDecompressOffsetBeyondOutput(t *testing.T) {
	// One literal then a match reaching before the start of output.
	src := []byte{0x10, 'a', 0x05, 0x00}
	dst := make([]byte, 64)
	if _, err := Decompress(dst, src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress offset>output = %v, want ErrCorrupt", err)
	}
}

func TestDecompressTruncatedLiterals(t *testing.T) {
	src := []byte{0xF0, 0x05} // claims 20 literals, provides none
	dst := make([]byte, 64)
	if _, err := Decompress(dst, src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress truncated literals = %v, want ErrCorrupt", err)
	}
}

func TestDecompressDstTooSmall(t *testing.T) {
	src := []byte("hello world, hello world, hello world, hello world")
	comp := Compress(nil, src)
	dst := make([]byte, len(src)-10)
	if _, err := Decompress(dst, comp); !errors.Is(err, ErrDstTooSmall) {
		t.Fatalf("Decompress small dst = %v, want ErrDstTooSmall", err)
	}
}

func TestDecompressTruncatedLengthRun(t *testing.T) {
	src := []byte{0xF0, 255, 255} // extended literal length never terminates
	dst := make([]byte, 2048)
	if _, err := Decompress(dst, src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress truncated length = %v, want ErrCorrupt", err)
	}
}

func TestDecompressShortOutput(t *testing.T) {
	// A block that decodes to fewer bytes than len(dst) must not silently
	// succeed and leave a zero-garbage tail.
	src := []byte("hello world")
	comp := Compress(nil, src)
	dst := make([]byte, len(src)+5)
	if _, err := Decompress(dst, comp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress short output = %v, want ErrCorrupt", err)
	}
}

func TestDecompressTruncatedStream(t *testing.T) {
	// Truncating a valid compressed block must never yield a silent short
	// decode: every prefix has to fail (corrupt or dst-too-small), because
	// callers size dst from the framed raw length.
	src := bytes.Repeat([]byte("the quick brown fox. "), 200)
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	for cut := 0; cut < len(comp); cut++ {
		if _, err := Decompress(dst, comp[:cut]); err == nil {
			t.Fatalf("Decompress of %d/%d-byte prefix succeeded", cut, len(comp))
		}
	}
}

func TestDecompressEmptyBlockNonEmptyDst(t *testing.T) {
	dst := make([]byte, 4)
	if _, err := Decompress(dst, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress(4-byte dst, empty src) = %v, want ErrCorrupt", err)
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte("header:")
	src := bytes.Repeat([]byte("data"), 100)
	out := Compress(prefix, src)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Compress did not preserve dst prefix")
	}
	dst := make([]byte, len(src))
	n, err := Decompress(dst, out[len(prefix):])
	if err != nil || n != len(src) {
		t.Fatalf("Decompress after prefix: n=%d err=%v", n, err)
	}
}

// TestPropertyRoundTrip: arbitrary byte slices survive compress/decompress.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(nil, src)
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRepetitiveRoundTrip: inputs built from a tiny alphabet (high
// match density) survive round trips — stresses the match-emission paths.
func TestPropertyRepetitiveRoundTrip(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(size))
		for i := range src {
			src[i] = byte(rng.Intn(3))
		}
		comp := Compress(nil, src)
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecompressNeverPanics: arbitrary garbage input must produce an
// error or a result, never a panic or out-of-bounds write.
func TestPropertyDecompressNeverPanics(t *testing.T) {
	f := func(garbage []byte, dstSize uint16) bool {
		dst := make([]byte, int(dstSize%8192))
		_, _ = Decompress(dst, garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := 0; i < len(src); i += 8 {
		v := rng.Intn(256)
		for j := 0; j < 8 && i+j < len(src); j++ {
			src[i+j] = byte(v)
		}
	}
	buf := make([]byte, 0, CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Compress(buf[:0], src)
	}
}

func BenchmarkDecompress1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := 0; i < len(src); i += 8 {
		v := rng.Intn(256)
		for j := 0; j < 8 && i+j < len(src); j++ {
			src[i+j] = byte(v)
		}
	}
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressFrames and BenchmarkDecompressFrames run the codec over
// the message shape that pays for it: an 80-step frame rollout, ~2.26 MB of
// mostly long matches.
func BenchmarkCompressFrames(b *testing.B) {
	src := breakoutLike(80)
	buf := make([]byte, 0, CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Compress(buf[:0], src)
	}
}

func BenchmarkDecompressFrames(b *testing.B) {
	src := breakoutLike(80)
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}
