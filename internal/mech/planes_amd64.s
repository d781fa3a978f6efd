// The plane sampler's kernels (see planes_amd64.go): one group loop,
// planes_amd64.h, under two definitions of STEP and TAIL.

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

#define TAIL

// func planesAVX2(st *rng.Xoshiro4, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)
TEXT ·planesAVX2(SB), NOSPLIT, $0-56
	MOVQ    st+0(FP), AX
	VMOVDQU 0(AX), Y0
	VMOVDQU 32(AX), Y1
	VMOVDQU 64(AX), Y2
	VMOVDQU 96(AX), Y3
	MOVQ    planes+8(FP), SI
	MOVQ    live+16(FP), DX
	MOVQ    depth+24(FP), BX
	MOVQ    groups+32(FP), CX
	MOVQ    out+40(FP), DI
	MOVQ    last+48(FP), R10
#include "planes_amd64.h"

// STEP on AVX-512VL, 12 ops: with t = s1 << 17, s3 ^= s1, s1 ^= s2 ^ s0,
// s2 ^= s0 ^ t (VPTERNLOGQ 0x96), s0 ^= s3, s3 = rotl(s3, 45) (VPROLQ); the
// plane p decides d = Y4 & (x ^ p) (0x48), Y5 |= d & p (0xF8), Y4 &^= d.
#undef STEP
#undef TAIL
#define STEP \
	VPADDQ     Y0, Y3, Y6; \
	VPROLQ     $23, Y6, Y6; \
	VPADDQ     Y0, Y6, Y6; \
	VPSLLQ     $17, Y1, Y7; \
	VPXORQ     Y1, Y3, Y3; \
	VPTERNLOGQ $0x96, Y0, Y2, Y1; \
	VPTERNLOGQ $0x96, Y7, Y0, Y2; \
	VPXORQ     Y3, Y0, Y0; \
	VPROLQ     $45, Y3, Y3; \
	VMOVDQU    (SI), Y8; \
	VPTERNLOGQ $0x48, Y8, Y4, Y6; \
	VPTERNLOGQ $0xF8, Y8, Y6, Y5; \
	VPANDNQ    Y4, Y6, Y4; \
	ADDQ       $32, SI

// TAIL takes the tail's first draw (39% of full groups need it) without a
// branch: it steps, and restores the state under K1 if no lane was undecided.
#define TAIL \
	CMPQ      SI, R9; \
	JEQ       decided; \
	VPTEST    Y4, Y4; \
	SETEQ     AX; \
	NEGB      AX; \
	KMOVB     AX, K1; \
	VMOVDQA64 Y0, Y16; \
	VMOVDQA64 Y1, Y17; \
	VMOVDQA64 Y2, Y18; \
	VMOVDQA64 Y3, Y19; \
	STEP; \
	VMOVDQA64 Y16, K1, Y0; \
	VMOVDQA64 Y17, K1, Y1; \
	VMOVDQA64 Y18, K1, Y2; \
	VMOVDQA64 Y19, K1, Y3

// MIX is SplitMix64's output function on r, its multipliers in Y9, Y10.
#define MIX(r) \
	VPSRLQ  $30, r, Y7; \
	VPXORQ  Y7, r, r; \
	VPMULLQ Y9, r, r; \
	VPSRLQ  $27, r, Y7; \
	VPXORQ  Y7, r, r; \
	VPMULLQ Y10, r, r; \
	VPSRLQ  $31, r, Y7; \
	VPXORQ  Y7, r, r

// SEED turns a and b, broadcast in Y0 and Y2, into Xoshiro4.Seed's state
// rows: mix(a + (2i+1)φ), mix(a + (2i+2)φ), and the same from b.
#define SEED \
	VPBROADCASTQ seedk<>+0(SB), Y8; \
	VPBROADCASTQ seedk<>+8(SB), Y9; \
	VPBROADCASTQ seedk<>+16(SB), Y10; \
	VPADDQ       seedk<>+24(SB), Y0, Y0; \
	VPADDQ       seedk<>+24(SB), Y2, Y2; \
	VPADDQ       Y8, Y0, Y1; \
	VPADDQ       Y8, Y2, Y3; \
	MIX(Y0); \
	MIX(Y1); \
	MIX(Y2); \
	MIX(Y3)

// φ, SplitMix64's multipliers, and the stream offsets φ, 3φ, 5φ, 7φ.
DATA seedk<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA seedk<>+8(SB)/8, $0xbf58476d1ce4e5b9
DATA seedk<>+16(SB)/8, $0x94d049bb133111eb
DATA seedk<>+24(SB)/8, $0x9e3779b97f4a7c15
DATA seedk<>+32(SB)/8, $0xdaa66d2c7ddf743f
DATA seedk<>+40(SB)/8, $0x1715609f7c746c69
DATA seedk<>+48(SB)/8, $0x538454127b096493
GLOBL seedk<>(SB), RODATA|NOPTR, $56

// func planesAVX512(a, b uint64, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)
TEXT ·planesAVX512(SB), NOSPLIT, $0-64
	VPBROADCASTQ a+0(FP), Y0
	VPBROADCASTQ b+8(FP), Y2
	SEED
	MOVQ planes+16(FP), SI
	MOVQ live+24(FP), DX
	MOVQ depth+32(FP), BX
	MOVQ groups+40(FP), CX
	MOVQ out+48(FP), DI
	MOVQ last+56(FP), R10
#include "planes_amd64.h"

// func seedAVX512(a, b uint64, st *rng.Xoshiro4)
TEXT ·seedAVX512(SB), NOSPLIT, $0-24
	VPBROADCASTQ a+0(FP), Y0
	VPBROADCASTQ b+8(FP), Y2
	SEED
	MOVQ    st+16(FP), AX
	VMOVDQU Y0, 0(AX)
	VMOVDQU Y1, 32(AX)
	VMOVDQU Y2, 64(AX)
	VMOVDQU Y3, 96(AX)
	VZEROUPPER
	RET
