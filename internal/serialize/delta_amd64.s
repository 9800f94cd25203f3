#include "textflag.h"

// The int8 chain step's two sweeps in baseline SSE2. Each lane's Δ is
// SUBPS cur − base, the correctly rounded subtraction Go's SUBSS computes
// (cur is the first operand, as in Go's cur[i]−base[i]), and its magnitude
// bits are Δ's bits with the sign cleared (PAND with 0x7fffffff). Those lie
// in [0, 2^31), where the signed PCMPGTL orders them as unsigned integers,
// and so as float magnitudes: every NaN's lie above +Inf's.

// MAXU sets acc to max(a, acc) of magnitude bits, per dword, with t as
// scratch and a clobbered: acc ^= (a ^ acc) & (a > acc). PMAXUD is SSE4.1.
#define MAXU(a, acc, t) \
	MOVO    a, t; \
	PCMPGTL acc, t; \
	PXOR    acc, a; \
	PAND    t, a; \
	PXOR    a, acc

// ABSDELTA sets c to the magnitude bits of c − b, per dword; X15 holds
// 0x7fffffff in every dword.
#define ABSDELTA(c, b) \
	SUBPS b, c; \
	PAND  X15, c

// func maxAbsBits(base, cur []float32) uint32
//
// The largest magnitude bits of cur[i] − base[i] over the first
// len(cur) &^ 15 lanes, 0 when there are none: 16 lanes per iteration into
// four running maxima, folded and reduced across lanes at the end.
TEXT ·maxAbsBits(SB), NOSPLIT, $0-52
	MOVQ   base_base+0(FP), SI
	MOVQ   cur_base+24(FP), DI
	MOVQ   cur_len+32(FP), CX
	SHRQ   $4, CX
	MOVL   $0x7fffffff, AX
	MOVQ   AX, X15
	PSHUFL $0x00, X15, X15
	PXOR   X4, X4
	PXOR   X5, X5
	PXOR   X6, X6
	PXOR   X7, X7
	TESTQ  CX, CX
	JZ     maxfold

maxloop:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	MOVUPS 32(SI), X10
	MOVUPS 48(SI), X11
	ABSDELTA(X0, X8)
	ABSDELTA(X1, X9)
	ABSDELTA(X2, X10)
	ABSDELTA(X3, X11)
	MAXU(X0, X4, X12)
	MAXU(X1, X5, X13)
	MAXU(X2, X6, X12)
	MAXU(X3, X7, X13)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   CX
	JNZ    maxloop

maxfold:
	MAXU(X5, X4, X12)
	MAXU(X7, X6, X13)
	MAXU(X6, X4, X12)
	PSHUFL $0x4e, X4, X5 // swap the qwords
	MAXU(X5, X4, X12)
	PSHUFL $0xb1, X4, X5 // swap the dwords of each qword
	MAXU(X5, X4, X12)
	MOVQ   X4, AX
	MOVL   AX, ret+48(FP)
	RET

// func skipBelow(base, cur []float32, i int, half uint32) int
//
// Walks 8-lane blocks from lane i while a whole block lies inside cur and
// every lane's magnitude bits are below half. It returns the first lane at
// or above half in the block that has one (MOVMSKPS of the two 4-lane
// compares, then BSF), else the first lane it did not look at. a >= half
// is tested as a > half − 1, signed: for half = 0, half − 1 is −1, below
// every magnitude.
TEXT ·skipBelow(SB), NOSPLIT, $0-72
	MOVQ   base_base+0(FP), SI
	MOVQ   cur_base+24(FP), DI
	MOVQ   cur_len+32(FP), CX
	MOVQ   i+48(FP), BX
	MOVL   half+56(FP), AX
	DECL   AX
	MOVQ   AX, X14
	PSHUFL $0x00, X14, X14
	MOVL   $0x7fffffff, AX
	MOVQ   AX, X15
	PSHUFL $0x00, X15, X15
	SUBQ   $8, CX             // the last lane a whole block starts at

skiploop:
	CMPQ     BX, CX
	JGT      skipdone
	MOVUPS   (DI)(BX*4), X0
	MOVUPS   16(DI)(BX*4), X1
	MOVUPS   (SI)(BX*4), X2
	MOVUPS   16(SI)(BX*4), X3
	ABSDELTA(X0, X2)
	ABSDELTA(X1, X3)
	PCMPGTL  X14, X0
	PCMPGTL  X14, X1
	MOVMSKPS X0, AX
	MOVMSKPS X1, DX
	SHLL     $4, DX
	ORL      DX, AX
	JNZ      skipfound
	ADDQ     $8, BX
	JMP      skiploop

skipfound:
	BSFL AX, AX
	ADDQ AX, BX

skipdone:
	MOVQ BX, ret+64(FP)
	RET
