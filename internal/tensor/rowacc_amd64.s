#include "textflag.h"

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

// func rowAccAVX(o, a, b, bias []float32, n, astride, bstride int, relu, skip bool)
//
// o[j] += a[p*astride] * b[p*bstride+j] for j < len(o), p < n ascending;
// with skip, a p whose a term compares equal to zero is passed over
// (UCOMISS: equal is ZF=1 with PF=0; a NaN sets PF and is taken). Columns
// go 64 at a time in Y0-Y7, then 8 at a time in Y0; len(o) is a multiple
// of 8. Each chunk is loaded once, takes every term (VMULPS, then VADDPS
// with the sum first, each rounded once, the scalar loop's order), then
// adds bias (when not nil) and with relu clears every lane that compares
// <= 0 (VCMPPS LE is false for NaN, so NaN passes), and is stored once.
// No FMA: a fused multiply-add would round once where the scalar loop
// rounds twice.
TEXT ·rowAccAVX(SB), NOSPLIT, $0-122
	MOVQ    o_base+0(FP), DI
	MOVQ    o_len+8(FP), DX        // columns left
	MOVQ    a_base+24(FP), R11
	MOVQ    b_base+48(FP), R12     // b at the current chunk's column
	MOVQ    bias_base+72(FP), R13  // bias at the current chunk, or nil
	MOVQ    n+96(FP), R10
	MOVQ    astride+104(FP), R8
	SHLQ    $2, R8
	MOVQ    bstride+112(FP), R9
	SHLQ    $2, R9
	MOVBQZX relu+120(FP), AX
	SHLQ    $1, AX
	MOVBQZX skip+121(FP), BX
	ORQ     AX, BX                 // bit 0 skip, bit 1 relu
	VXORPS  Y15, Y15, Y15

chunk64:
	CMPQ    DX, $64
	JLT     chunk8
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

loop64:
	TESTQ        $1, BX
	JZ           take64
	VUCOMISS     (SI), X15
	JNE          take64
	JPC          next64

take64:
	VBROADCASTSS (SI), Y8
	VMULPS       (CX), Y8, Y9
	VMULPS       32(CX), Y8, Y10
	VMULPS       64(CX), Y8, Y11
	VMULPS       96(CX), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VMULPS       128(CX), Y8, Y9
	VMULPS       160(CX), Y8, Y10
	VMULPS       192(CX), Y8, Y11
	VMULPS       224(CX), Y8, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

next64:
	ADDQ R8, SI
	ADDQ R9, CX
	DECQ AX
	JNZ  loop64

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
	TESTQ   $2, BX
	JZ      store64
	VCMPPS  $2, Y15, Y0, Y8
	VCMPPS  $2, Y15, Y1, Y9
	VCMPPS  $2, Y15, Y2, Y10
	VCMPPS  $2, Y15, Y3, Y11
	VANDNPS Y0, Y8, Y0
	VANDNPS Y1, Y9, Y1
	VANDNPS Y2, Y10, Y2
	VANDNPS Y3, Y11, Y3
	VCMPPS  $2, Y15, Y4, Y8
	VCMPPS  $2, Y15, Y5, Y9
	VCMPPS  $2, Y15, Y6, Y10
	VCMPPS  $2, Y15, Y7, Y11
	VANDNPS Y4, Y8, Y4
	VANDNPS Y5, Y9, Y5
	VANDNPS Y6, Y10, Y6
	VANDNPS Y7, Y11, Y7

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

chunk8:
	TESTQ   DX, DX
	JZ      done
	VMOVUPS (DI), Y0
	MOVQ    R11, SI
	MOVQ    R12, CX
	MOVQ    R10, AX
	TESTQ   AX, AX
	JZ      bias8

loop8:
	TESTQ        $1, BX
	JZ           take8
	VUCOMISS     (SI), X15
	JNE          take8
	JPC          next8

take8:
	VBROADCASTSS (SI), Y8
	VMULPS       (CX), Y8, Y9
	VADDPS       Y9, Y0, Y0

next8:
	ADDQ R8, SI
	ADDQ R9, CX
	DECQ AX
	JNZ  loop8

bias8:
	TESTQ  R13, R13
	JZ     relu8
	VADDPS (R13), Y0, Y0
	ADDQ   $32, R13

relu8:
	TESTQ   $2, BX
	JZ      store8
	VCMPPS  $2, Y15, Y0, Y8
	VANDNPS Y0, Y8, Y0

store8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R12
	SUBQ    $8, DX
	JMP     chunk8

done:
	VZEROUPPER
	RET
