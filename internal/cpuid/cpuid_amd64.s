#include "textflag.h"

// func level() int
TEXT ·level(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
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
	XGETBV          // XCR0: the register state the OS saves
	MOVL AX, R8
	ANDL $6, AX     // bits 1 and 2: XMM and YMM
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX     // EBX bit 5: AVX2
	JCC  done
	MOVQ $1, ret+0(FP)
	ANDL $0xe0, R8  // XCR0 bits 5-7: opmask, ZMM_Hi256 and Hi16_ZMM
	CMPL R8, $0xe0
	JNE  done
	ANDL $0x80030000, BX  // EBX bits 16 (AVX512F), 17 (AVX512DQ), 31 (AVX512VL)
	CMPL BX, $0x80030000
	JNE  done
	MOVQ $2, ret+0(FP)

done:
	RET
