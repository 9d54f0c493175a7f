#include "textflag.h"

// func prefetch3(a, b, c unsafe.Pointer)
TEXT ·prefetch3(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ a+0(FP), AX
	PREFETCHT0 (AX)
	MOVQ b+8(FP), AX
	PREFETCHT0 (AX)
	MOVQ c+16(FP), AX
	PREFETCHT0 (AX)
	RET
