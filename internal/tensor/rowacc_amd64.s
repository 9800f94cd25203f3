#include "textflag.h"

// tailmask<> is eight all-ones lanes, then eight zero lanes: the eight
// lanes from tailmask<>+32-4c select the first c of a chunk (c <= 8).
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// MASK8 sets mask to the first min(cnt, 8) lanes (cnt > 0), using t and p.
#define MASK8(cnt, t, p, mask) \
	MOVQ    $8, t; \
	CMPQ    cnt, t; \
	CMOVQLT cnt, t; \
	SHLQ    $2, t; \
	LEAQ    tailmask<>+32(SB), p; \
	SUBQ    t, p; \
	VMOVUPS (p), mask

// TERM adds the broadcast a term in Y8 times the 8 b lanes at off(CX) to
// acc: one VMULPS, then one VADDPS with the sum first, each rounded once.
#define TERM(off, acc) \
	VMULPS off(CX), Y8, Y9; \
	VADDPS Y9, acc, acc

// LANE is TERM with the zero-skip per lane: where the b lane compares equal
// to zero (VCMPPS EQ_OQ, false for NaN) acc keeps its value (VBLENDVPS),
// so the term is passed over exactly as the scalar loop's skip does.
#define LANE(off, acc) \
	VMOVUPS   off(CX), Y9; \
	VCMPPS    $0, Y15, Y9, Y10; \
	VMULPS    Y9, Y8, Y9; \
	VADDPS    Y9, acc, Y9; \
	VBLENDVPS Y10, acc, Y9, acc

// RELU clears acc's lanes that compare <= 0 (VCMPPS LE is false for NaN,
// so NaN passes).
#define RELU(acc) \
	VCMPPS  $2, Y15, acc, Y9; \
	VANDNPS acc, Y9, acc

// NEXT steps SI and CX to the next term, and loops to label while terms
// are left.
#define NEXT(label) \
	ADDQ R8, SI; \
	ADDQ R9, CX; \
	DECQ AX; \
	JNZ  label

// SKIPA jumps to skip when flag skipA is set and the a term at (SI)
// compares equal to zero (UCOMISS: equal is ZF=1 with PF=0; a NaN sets PF
// and is taken).
#define SKIPA(take, skip) \
	TESTQ    $1, BX; \
	JZ       take; \
	VUCOMISS (SI), X15; \
	JNE      take; \
	JPC      skip

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX         // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL   CX, $0x18000000
	JNE    noavx
	XORL   CX, CX
	XGETBV                         // EDX:EAX = XCR0
	ANDL   $6, AX                  // XMM and YMM state enabled
	CMPL   AX, $6
	JNE    noavx
	MOVB   $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func rowAccAVX(o, a, b, bias []float32, n, astride, bstride, flags int)
//
// o[j] += a[p*astride] * b[p*bstride+j] for j < len(o), p < n ascending.
// flags bit 0 (skipA) passes over a p whose a term is zero; bit 2 (skipB)
// passes over it per lane, where the b term is zero. Columns go 64 at a
// time in Y0-Y7, then 32 in Y0-Y3, then 8 at a time in Y0, the last
// len(o) mod 8 through VMASKMOVPS, which neither reads b or bias nor
// writes o past the chunk's columns. Each chunk is loaded once, takes
// every term (VMULPS, then VADDPS with the sum first, each rounded once,
// the scalar loop's order), then adds bias (when not nil) and with bit 1
// (reluOut) clears every lane that compares <= 0, and is stored once. No
// FMA: a fused multiply-add would round once where the scalar loop rounds
// twice.
TEXT ·rowAccAVX(SB), NOSPLIT, $0-128
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), DX         // columns left
	MOVQ   a_base+24(FP), R11
	MOVQ   b_base+48(FP), R12      // b at the current chunk's column
	MOVQ   bias_base+72(FP), R13   // bias at the current chunk, or nil
	MOVQ   n+96(FP), R10
	MOVQ   astride+104(FP), R8
	SHLQ   $2, R8
	MOVQ   bstride+112(FP), R9
	SHLQ   $2, R9
	MOVQ   flags+120(FP), BX
	VXORPS Y15, Y15, Y15

chunk64:
	CMPQ    DX, $64
	JLT     chunk32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    R11, SI
	MOVQ    R12, CX
	MOVQ    R10, AX
	TESTQ   AX, AX
	JZ      bias64
	TESTQ   $4, BX
	JNZ     lane64

loop64:
	SKIPA(take64, next64)

take64:
	VBROADCASTSS (SI), Y8
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	TERM(128, Y4)
	TERM(160, Y5)
	TERM(192, Y6)
	TERM(224, Y7)

next64:
	NEXT(loop64)
	JMP bias64

lane64:
	VBROADCASTSS (SI), Y8
	LANE(0, Y0)
	LANE(32, Y1)
	LANE(64, Y2)
	LANE(96, Y3)
	LANE(128, Y4)
	LANE(160, Y5)
	LANE(192, Y6)
	LANE(224, Y7)
	NEXT(lane64)

bias64:
	TESTQ  R13, R13
	JZ     relu64
	VADDPS (R13), Y0, Y0
	VADDPS 32(R13), Y1, Y1
	VADDPS 64(R13), Y2, Y2
	VADDPS 96(R13), Y3, Y3
	VADDPS 128(R13), Y4, Y4
	VADDPS 160(R13), Y5, Y5
	VADDPS 192(R13), Y6, Y6
	VADDPS 224(R13), Y7, Y7
	ADDQ   $256, R13

relu64:
	TESTQ $2, BX
	JZ    store64
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

store64:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R12
	SUBQ    $64, DX
	JMP     chunk64

chunk32:
	CMPQ    DX, $32
	JLT     chunk8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    R11, SI
	MOVQ    R12, CX
	MOVQ    R10, AX
	TESTQ   AX, AX
	JZ      bias32
	TESTQ   $4, BX
	JNZ     lane32

loop32:
	SKIPA(take32, next32)

take32:
	VBROADCASTSS (SI), Y8
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)

next32:
	NEXT(loop32)
	JMP bias32

lane32:
	VBROADCASTSS (SI), Y8
	LANE(0, Y0)
	LANE(32, Y1)
	LANE(64, Y2)
	LANE(96, Y3)
	NEXT(lane32)

bias32:
	TESTQ  R13, R13
	JZ     relu32
	VADDPS (R13), Y0, Y0
	VADDPS 32(R13), Y1, Y1
	VADDPS 64(R13), Y2, Y2
	VADDPS 96(R13), Y3, Y3
	ADDQ   $128, R13

relu32:
	TESTQ $2, BX
	JZ    store32
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R12
	SUBQ    $32, DX
	JMP     chunk32

	// Every 8-lane chunk goes through the mask in Y14: all eight lanes,
	// or the last len(o) mod 8. The chunk's chain of adds bounds its time,
	// so the masked loads cost the full chunks nothing.
chunk8:
	TESTQ      DX, DX
	JLE        done
	MASK8(DX, AX, SI, Y14)
	VMASKMOVPS (DI), Y14, Y0
	MOVQ       R11, SI
	MOVQ       R12, CX
	MOVQ       R10, AX
	TESTQ      AX, AX
	JZ         bias8
	TESTQ      $4, BX
	JNZ        lane8

loop8:
	SKIPA(take8, next8)

take8:
	VBROADCASTSS (SI), Y8
	VMASKMOVPS   (CX), Y14, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0

next8:
	NEXT(loop8)
	JMP bias8

lane8:
	VBROADCASTSS (SI), Y8
	VMASKMOVPS   (CX), Y14, Y9
	VCMPPS       $0, Y15, Y9, Y10
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y9
	VBLENDVPS    Y10, Y0, Y9, Y0
	NEXT(lane8)

bias8:
	TESTQ      R13, R13
	JZ         relu8
	VMASKMOVPS (R13), Y14, Y9
	VADDPS     Y9, Y0, Y0
	ADDQ       $32, R13

relu8:
	TESTQ $2, BX
	JZ    store8
	RELU(Y0)

store8:
	VMASKMOVPS Y0, Y14, (DI)
	ADDQ       $32, DI
	ADDQ       $32, R12
	SUBQ       $8, DX
	JMP        chunk8

done:
	VZEROUPPER
	RET

// func gateReLUAVX(o, g, y []float32)
//
// o[i] = g[i] where y[i] is positive or NaN, +0 where y[i] <= 0: VCMPPS LE
// against zero (false for NaN) makes the mask, and VANDNPS clears g's
// lanes under it. 32 lanes at a time, then 8 at a time through the mask
// in Y14, the last len(o) mod 8 with VMASKMOVPS.
TEXT ·gateReLUAVX(SB), NOSPLIT, $0-72
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), DX
	MOVQ   g_base+24(FP), SI
	MOVQ   y_base+48(FP), CX
	VXORPS Y15, Y15, Y15

gate32:
	CMPQ    DX, $32
	JLT     gate8
	VMOVUPS (CX), Y0
	VMOVUPS 32(CX), Y1
	VMOVUPS 64(CX), Y2
	VMOVUPS 96(CX), Y3
	VCMPPS  $2, Y15, Y0, Y0
	VCMPPS  $2, Y15, Y1, Y1
	VCMPPS  $2, Y15, Y2, Y2
	VCMPPS  $2, Y15, Y3, Y3
	VANDNPS (SI), Y0, Y0
	VANDNPS 32(SI), Y1, Y1
	VANDNPS 64(SI), Y2, Y2
	VANDNPS 96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, CX
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, DX
	JMP     gate32

gate8:
	TESTQ      DX, DX
	JLE        gatedone
	MASK8(DX, AX, BX, Y14)
	VMASKMOVPS (CX), Y14, Y0
	VMASKMOVPS (SI), Y14, Y1
	VCMPPS     $2, Y15, Y0, Y0
	VANDNPS    Y1, Y0, Y0
	VMASKMOVPS Y0, Y14, (DI)
	ADDQ       $32, CX
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $8, DX
	JMP        gate8

gatedone:
	VZEROUPPER
	RET

// func scaleAVX(o []float32, s float32)
//
// o[i] *= s: VMULPS with o's lanes as the first operand, as Go's MULSS has
// them, so every lane, NaN payloads included, is the scalar product. 32
// lanes at a time, then 8 at a time through the mask in Y14, the last
// len(o) mod 8 with VMASKMOVPS.
TEXT ·scaleAVX(SB), NOSPLIT, $0-28
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), DX
	VBROADCASTSS s+24(FP), Y8

scale32:
	CMPQ    DX, $32
	JLT     scale8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y2, Y2
	VMULPS  Y8, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $32, DX
	JMP     scale32

scale8:
	TESTQ      DX, DX
	JLE        scaledone
	MASK8(DX, AX, BX, Y14)
	VMASKMOVPS (DI), Y14, Y0
	VMULPS     Y8, Y0, Y0
	VMASKMOVPS Y0, Y14, (DI)
	ADDQ       $32, DI
	SUBQ       $8, DX
	JMP        scale8

scaledone:
	VZEROUPPER
	RET

// func transposeAVX(dst, src []float32, rows, cols int)
//
// Writes the transpose of the rows×cols matrix src into dst, for the whole
// 8×8 blocks only (rows&^7 by cols&^7); the caller copies the edges. Each
// block is eight row loads, VUNPCKLPS/VUNPCKHPS and VSHUFPS within the
// 128-bit halves, VPERM2F128 across them, and eight row stores.
TEXT ·transposeAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), R10
	MOVQ cols+56(FP), R11
	MOVQ R11, R8
	SHLQ $2, R8                    // src row bytes
	MOVQ R10, R9
	SHLQ $2, R9                    // dst row bytes
	LEAQ (R8)(R8*2), R12           // three src rows
	LEAQ (R9)(R9*2), R13           // three dst rows
	ANDQ $-8, R10
	ANDQ $-8, R11
	XORQ CX, CX                    // block's first src row

rowblk:
	CMPQ CX, R10
	JGE  tdone
	XORQ DX, DX                    // block's first src column

colblk:
	CMPQ       DX, R11
	JGE        nextrow
	MOVQ       CX, AX
	IMULQ      R8, AX
	ADDQ       SI, AX
	LEAQ       (AX)(DX*4), AX      // src + CX rows + DX columns
	LEAQ       (AX)(R8*4), BX
	VMOVUPS    (AX), Y0
	VMOVUPS    (AX)(R8*1), Y1
	VMOVUPS    (AX)(R8*2), Y2
	VMOVUPS    (AX)(R12*1), Y3
	VMOVUPS    (BX), Y4
	VMOVUPS    (BX)(R8*1), Y5
	VMOVUPS    (BX)(R8*2), Y6
	VMOVUPS    (BX)(R12*1), Y7
	VUNPCKLPS  Y1, Y0, Y8          // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS  Y1, Y0, Y9          // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0  // a0 b0 c0 d0 | a4 b4 c4 d4
	VSHUFPS    $0xee, Y10, Y8, Y1  // a1 b1 c1 d1 | a5 b5 c5 d5
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xee, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4 // e0 f0 g0 h0 | e4 f4 g4 h4
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	MOVQ       DX, AX
	IMULQ      R9, AX
	ADDQ       DI, AX
	LEAQ       (AX)(CX*4), AX      // dst + DX rows + CX columns
	LEAQ       (AX)(R9*4), BX
	VPERM2F128 $0x20, Y4, Y0, Y8   // a0 … h0
	VMOVUPS    Y8, (AX)
	VPERM2F128 $0x20, Y5, Y1, Y8
	VMOVUPS    Y8, (AX)(R9*1)
	VPERM2F128 $0x20, Y6, Y2, Y8
	VMOVUPS    Y8, (AX)(R9*2)
	VPERM2F128 $0x20, Y7, Y3, Y8
	VMOVUPS    Y8, (AX)(R13*1)
	VPERM2F128 $0x31, Y4, Y0, Y8   // a4 … h4
	VMOVUPS    Y8, (BX)
	VPERM2F128 $0x31, Y5, Y1, Y8
	VMOVUPS    Y8, (BX)(R9*1)
	VPERM2F128 $0x31, Y6, Y2, Y8
	VMOVUPS    Y8, (BX)(R9*2)
	VPERM2F128 $0x31, Y7, Y3, Y8
	VMOVUPS    Y8, (BX)(R13*1)
	ADDQ       $8, DX
	JMP        colblk

nextrow:
	ADDQ $8, CX
	JMP  rowblk

tdone:
	VZEROUPPER
	RET
