#include "textflag.h"

// func axpySSE2(o, b []float32, a float32)
//
// o[j] += a*b[j] for j < len(b): 16 lanes per iteration, then 4, then one
// at a time. Loads and stores are unaligned. Every lane multiplies, then
// adds, each rounded once, in the same order as the scalar loop.
TEXT ·axpySSE2(SB), NOSPLIT, $0-52
	MOVQ   o_base+0(FP), DI
	MOVQ   b_base+24(FP), SI
	MOVQ   b_len+32(FP), CX
	MOVSS  a+48(FP), X0
	SHUFPS $0x00, X0, X0

	CMPQ CX, $16
	JLT  tail4

loop16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    loop16

tail4:
	CMPQ CX, $4
	JLT  tail1

loop4:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    loop4

tail1:
	TESTQ CX, CX
	JZ    done

loop1:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   loop1

done:
	RET

// func axpy4SSE2(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
//
// o[j] = (((o[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j] for
// j < len(b0): four axpySSE2 calls fused into one pass over o. o is loaded
// and stored once per lane; every product and every sum is rounded once, in
// the order the four calls would round them. 16 lanes per iteration in four
// independent accumulators, then 8, then 4, then one at a time.
TEXT ·axpy4SSE2(SB), NOSPLIT, $0-136
	MOVQ   o_base+0(FP), DI
	MOVQ   b0_base+24(FP), SI
	MOVQ   b0_len+32(FP), CX
	MOVQ   b1_base+48(FP), R8
	MOVQ   b2_base+72(FP), R9
	MOVQ   b3_base+96(FP), R10
	MOVSS  a0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  a1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  a2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  a3+132(FP), X3
	SHUFPS $0x00, X3, X3

	CMPQ CX, $16
	JLT  tail8

loop16:
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MOVUPS 32(DI), X6
	MOVUPS 48(DI), X7

	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	MOVUPS 32(SI), X10
	MOVUPS 48(SI), X11
	MULPS  X0, X8
	MULPS  X0, X9
	MULPS  X0, X10
	MULPS  X0, X11
	ADDPS  X8, X4
	ADDPS  X9, X5
	ADDPS  X10, X6
	ADDPS  X11, X7

	MOVUPS (R8), X12
	MOVUPS 16(R8), X13
	MOVUPS 32(R8), X14
	MOVUPS 48(R8), X15
	MULPS  X1, X12
	MULPS  X1, X13
	MULPS  X1, X14
	MULPS  X1, X15
	ADDPS  X12, X4
	ADDPS  X13, X5
	ADDPS  X14, X6
	ADDPS  X15, X7

	MOVUPS (R9), X8
	MOVUPS 16(R9), X9
	MOVUPS 32(R9), X10
	MOVUPS 48(R9), X11
	MULPS  X2, X8
	MULPS  X2, X9
	MULPS  X2, X10
	MULPS  X2, X11
	ADDPS  X8, X4
	ADDPS  X9, X5
	ADDPS  X10, X6
	ADDPS  X11, X7

	MOVUPS (R10), X12
	MOVUPS 16(R10), X13
	MOVUPS 32(R10), X14
	MOVUPS 48(R10), X15
	MULPS  X3, X12
	MULPS  X3, X13
	MULPS  X3, X14
	MULPS  X3, X15
	ADDPS  X12, X4
	ADDPS  X13, X5
	ADDPS  X14, X6
	ADDPS  X15, X7

	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	MOVUPS X6, 32(DI)
	MOVUPS X7, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	ADDQ   $64, R8
	ADDQ   $64, R9
	ADDQ   $64, R10
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    loop16

tail8:
	CMPQ CX, $8
	JLT  tail4

	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	MULPS  X0, X8
	MULPS  X0, X9
	ADDPS  X8, X4
	ADDPS  X9, X5
	MOVUPS (R8), X10
	MOVUPS 16(R8), X11
	MULPS  X1, X10
	MULPS  X1, X11
	ADDPS  X10, X4
	ADDPS  X11, X5
	MOVUPS (R9), X12
	MOVUPS 16(R9), X13
	MULPS  X2, X12
	MULPS  X2, X13
	ADDPS  X12, X4
	ADDPS  X13, X5
	MOVUPS (R10), X14
	MOVUPS 16(R10), X15
	MULPS  X3, X14
	MULPS  X3, X15
	ADDPS  X14, X4
	ADDPS  X15, X5
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	ADDQ   $32, R8
	ADDQ   $32, R9
	ADDQ   $32, R10
	SUBQ   $8, CX

tail4:
	CMPQ CX, $4
	JLT  tail1

	MOVUPS (DI), X4
	MOVUPS (SI), X8
	MULPS  X0, X8
	ADDPS  X8, X4
	MOVUPS (R8), X9
	MULPS  X1, X9
	ADDPS  X9, X4
	MOVUPS (R9), X10
	MULPS  X2, X10
	ADDPS  X10, X4
	MOVUPS (R10), X11
	MULPS  X3, X11
	ADDPS  X11, X4
	MOVUPS X4, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, R10
	SUBQ   $4, CX

tail1:
	TESTQ CX, CX
	JZ    done4

loop1:
	MOVSS (DI), X4
	MOVSS (SI), X8
	MULSS X0, X8
	ADDSS X8, X4
	MOVSS (R8), X9
	MULSS X1, X9
	ADDSS X9, X4
	MOVSS (R9), X10
	MULSS X2, X10
	ADDSS X10, X4
	MOVSS (R10), X11
	MULSS X3, X11
	ADDSS X11, X4
	MOVSS X4, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	DECQ  CX
	JNZ   loop1

done4:
	RET
