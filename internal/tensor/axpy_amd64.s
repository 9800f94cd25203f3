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
