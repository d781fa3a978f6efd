// The plane kernels' group loop: Y0-Y3 the state rows; SI/DX/BX a group's
// planes, live masks and depth; CX the groups; DI, R10 the output and last
// words; Y4/Y5 undecided and below-threshold lanes; R8/R9 prefix/planes end.

group:
	VMOVDQU (DX), Y4
	VPXOR   Y5, Y5, Y5
	LEAQ    2048(SI), R9
	MOVBQZX (BX), R8
	SHLQ    $5, R8
	ADDQ    SI, R8
	JMP     prefixtest

prefix:
	STEP

prefixtest:
	CMPQ SI, R8
	JNE  prefix
	TAIL

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
	VMOVDQU Y5, (R10)
	VZEROUPPER
	RET
