// The plane sampler's AVX2 kernel (see planesAVX2 in planes_amd64.go) and
// the CPU check that picks it. Register use: Y0-Y3 the state rows of the
// four streams, Y4 and Y5 the undecided and below-threshold lanes of the
// group's four words, Y6-Y8 scratch; SI the plane cursor, R8 the end of
// the prefix and R9 of the group's 64 planes, DX/BX/DI the live masks,
// depths and output words of the group, CX the groups left.

#include "textflag.h"

// STEP advances the four xoshiro256++ streams, state rows Y0-Y3, by one
// draw into Y6 (AVX2 has no 64-bit rotate: shift, shift, or), then takes
// the plane at (SI) for the four words: Y5 |= Y4 &^ x & t, Y4 &^= x ^ t,
// Y4 the lanes still undecided and Y5 those decided below the threshold.
#define STEP \
	VPADDQ  Y0, Y3, Y6; \
	VPSLLQ  $23, Y6, Y7; \
	VPSRLQ  $41, Y6, Y6; \
	VPOR    Y7, Y6, Y6; \
	VPADDQ  Y0, Y6, Y6; \
	VPSLLQ  $17, Y1, Y7; \
	VPXOR   Y0, Y2, Y2; \
	VPXOR   Y1, Y3, Y3; \
	VPXOR   Y2, Y1, Y1; \
	VPXOR   Y3, Y0, Y0; \
	VPXOR   Y7, Y2, Y2; \
	VPSLLQ  $45, Y3, Y7; \
	VPSRLQ  $19, Y3, Y3; \
	VPOR    Y7, Y3, Y3; \
	VMOVDQU (SI), Y8; \
	VPANDN  Y4, Y6, Y7; \
	VPAND   Y8, Y7, Y7; \
	VPOR    Y7, Y5, Y5; \
	VPXOR   Y8, Y6, Y6; \
	VPANDN  Y4, Y6, Y4; \
	ADDQ    $32, SI

// func planesAVX2(st *rng.Xoshiro4, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)
TEXT ·planesAVX2(SB), NOSPLIT, $0-56
	MOVQ    st+0(FP), AX
	MOVQ    planes+8(FP), SI
	MOVQ    live+16(FP), DX
	MOVQ    depth+24(FP), BX
	MOVQ    groups+32(FP), CX
	MOVQ    out+40(FP), DI
	VMOVDQU 0(AX), Y0
	VMOVDQU 32(AX), Y1
	VMOVDQU 64(AX), Y2
	VMOVDQU 96(AX), Y3

group:
	VMOVDQU (DX), Y4
	VPXOR   Y5, Y5, Y5
	LEAQ    2048(SI), R9 // the group's plane 64
	MOVBQZX (BX), R8
	SHLQ    $5, R8
	ADDQ    SI, R8       // the end of its prefix
	JMP     prefixtest

prefix:
	STEP

prefixtest:
	CMPQ SI, R8
	JNE  prefix

tail:
	VPTEST Y4, Y4
	JZ     decided
	CMPQ   SI, R9
	JEQ    decided
	STEP
	JMP    tail

decided:
	MOVQ R9, SI
	ADDQ $32, DX
	INCQ BX
	DECQ CX
	JZ   final
	VMOVDQU Y5, (DI)
	ADDQ $32, DI
	JMP  group

final:
	MOVQ    last+48(FP), DI
	VMOVDQU Y5, (DI)
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID           // EAX: the highest standard leaf
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX  // ECX bits 27 (OSXSAVE) and 28 (AVX)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV          // XCR0 bits 1 and 2: the OS saves XMM and YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX     // EBX bit 5: AVX2
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET
