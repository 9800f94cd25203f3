#include "textflag.h"

// func rmspropSSE2(p, g, sq []float32, decay, keep, lr, eps float32, small, m uint32)
//
// RMSProp's step on the first len(p) &^ 3 lanes, four per iteration; see
// rmspropStep.lane, which it matches bit for bit. A lane is small when its
// g is +0 or -0 and its sq bits, unsigned, are below small. Every lane
// runs
//
//	s  = decay*s0 + (keep*g)*g
//	p  = p - (lr*g) / (sqrt(s) + eps)
//
// each operation rounded once, in that order (SQRTPS is the correctly
// rounded square root), with s0 = sq for a lane that is not small and +0
// for one that is: there s is +0, so p takes LR·g/(√0 + eps), the signed
// zero the float formula gives, and no operation sees a subnormal. A lane
// that is not small stores s; a small one stores round-half-even(sq·m /
// 2^24), computed with 64-bit integer products (PMULULQ).
TEXT ·rmspropSSE2(SB), NOSPLIT, $0-96
	MOVQ   p_base+0(FP), DI
	MOVQ   p_len+8(FP), CX
	MOVQ   g_base+24(FP), SI
	MOVQ   sq_base+48(FP), DX
	MOVSS  decay+72(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  keep+76(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  lr+80(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  eps+84(FP), X3
	SHUFPS $0x00, X3, X3
	MOVL   small+88(FP), AX
	MOVQ   AX, X4
	PSHUFL $0x00, X4, X4             // small threshold, every dword
	PXOR   X5, X5                    // zero
	MOVL   m+92(FP), AX
	MOVQ   AX, X13
	PSHUFL $0x00, X13, X13           // m, every dword
	MOVQ   $0x7fffff, AX
	MOVQ   AX, X14
	PSHUFL $0x44, X14, X14           // 2^23 - 1, every qword
	MOVQ   $1, AX
	MOVQ   AX, X15
	PSHUFL $0x44, X15, X15           // 1, every qword
	XORQ   BX, BX

loop:
	SUBQ $4, CX
	JLT  done

	MOVUPS (SI)(BX*4), X6            // g
	MOVUPS (DX)(BX*4), X7            // sq

	// X8 = small lanes: g<<1 == 0, and 0 <= int32(sq) < small.
	MOVAPS  X6, X8
	PADDL   X8, X8
	PCMPEQL X5, X8
	MOVAPS  X4, X9
	PCMPGTL X7, X9
	MOVAPS  X5, X10
	PCMPGTL X7, X10
	PANDN   X9, X10
	PAND    X10, X8

	// X9 = round-half-even(sq*m / 2^24) per dword: products of dwords 0
	// and 2 in X9, of dwords 1 and 3 in X10, each rounded as
	// (x + 2^23 - 1 + bit 24 of x) >> 24.
	MOVAPS  X7, X9
	PMULULQ X13, X9
	MOVAPS  X7, X10
	PSRLQ   $32, X10
	PMULULQ X13, X10
	MOVAPS  X9, X11
	PSRLQ   $24, X11
	PAND    X15, X11
	PADDQ   X14, X11
	PADDQ   X11, X9
	PSRLQ   $24, X9
	MOVAPS  X10, X11
	PSRLQ   $24, X11
	PAND    X15, X11
	PADDQ   X14, X11
	PADDQ   X11, X10
	PSRLQ   $24, X10
	PSLLQ   $32, X10
	POR     X10, X9

	// X10 = decay*s0 + (keep*g)*g, X11 = sqrt of it + eps.
	MOVAPS X8, X10
	PANDN  X7, X10
	MULPS  X0, X10
	MOVAPS X6, X11
	MULPS  X1, X11
	MULPS  X6, X11
	ADDPS  X11, X10
	SQRTPS X10, X11
	ADDPS  X3, X11

	// sq = small ? X9 : X10.
	PAND   X8, X9
	PANDN  X10, X8
	POR    X9, X8
	MOVUPS X8, (DX)(BX*4)

	// p -= lr*g / X11.
	MULPS  X2, X6
	DIVPS  X11, X6
	MOVUPS (DI)(BX*4), X12
	SUBPS  X6, X12
	MOVUPS X12, (DI)(BX*4)

	ADDQ $4, BX
	JMP  loop

done:
	RET
