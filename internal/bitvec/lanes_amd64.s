// foldAVX512 (see lanes_amd64.go): Y0-Y3 planes 0-3, Y4-Y7 carries; SI,
// R8-R10 rows 0, 4, 8, 12; DX the row stride, BX 3·DX; DI the planes.

#include "textflag.h"

// CSA adds in two VPTERNLOGQ: acc ^ x ^ y (0x96) to acc, then the carry,
// maj(acc, x, y), to x from the new sum (0xB2), so no input is copied.
#define CSA(acc, x, y) \
	VPTERNLOGQ $0x96, y, x, acc; \
	VPTERNLOGQ $0xB2, y, acc, x

// FOUR adds the four rows at P into ones and twos, carrying fours to X.
#define FOUR(P, X, T) \
	VMOVDQU (P), X; \
	CSA(Y0, X, (P)(DX*1)); \
	VMOVDQU (P)(DX*2), T; \
	CSA(Y0, T, (P)(BX*1)); \
	CSA(Y1, X, T)

// func foldAVX512(stage *uint64, planes *[lanePlanes][4]uint64, cols int)
TEXT ·foldAVX512(SB), NOSPLIT, $0-24
	MOVQ stage+0(FP), SI
	MOVQ planes+8(FP), DI
	MOVQ cols+16(FP), CX
	MOVQ CX, DX
	SHLQ $5, DX
	LEAQ (DX)(DX*2), BX

column:
	LEAQ    (SI)(DX*4), R8
	LEAQ    (R8)(DX*4), R9
	LEAQ    (R9)(DX*4), R10
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	FOUR(SI, Y4, Y5)
	FOUR(R8, Y5, Y6)
	CSA(Y2, Y4, Y5)
	FOUR(R9, Y5, Y6)
	FOUR(R10, Y6, Y7)
	CSA(Y2, Y5, Y6)
	CSA(Y3, Y4, Y5)
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	LEAQ    128(DI), AX // the carry, weight 16, ripples up from plane 4
	ADDQ    $512, DI

ripple:
	VPTEST  Y4, Y4
	JZ      next
	CMPQ    AX, DI
	JEQ     next
	VMOVDQU (AX), Y8
	VPXORQ  Y4, Y8, Y5
	VPANDQ  Y8, Y4, Y4
	VMOVDQU Y5, (AX)
	ADDQ    $32, AX
	JMP     ripple

next:
	ADDQ $32, SI
	DECQ CX
	JNZ  column
	VZEROUPPER
	RET
