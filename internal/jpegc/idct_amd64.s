// The AVX2 body of reconstruct: the dequantization and the transform of
// idct.go, statement for statement, on eight int32 lanes — a lane is a row of
// the block in the row pass and a column in the column pass. Every add,
// subtract, multiply and shift is the 32-bit two's-complement operation Go
// performs on an int32, so the samples are those of the portable code for
// any input.

#include "go_asm.h"
#include "textflag.h"

// EIGHT stores eight 32-bit values at table+at.
#define EIGHT(table, at, a, b, c, d, e, f, g, h) \
	DATA table<>+at+0(SB)/4, $(a); \
	DATA table<>+at+4(SB)/4, $(b); \
	DATA table<>+at+8(SB)/4, $(c); \
	DATA table<>+at+12(SB)/4, $(d); \
	DATA table<>+at+16(SB)/4, $(e); \
	DATA table<>+at+20(SB)/4, $(f); \
	DATA table<>+at+24(SB)/4, $(g); \
	DATA table<>+at+28(SB)/4, $(h)

// LANES defines name as v in each of eight 32-bit lanes.
#define LANES(name, v) \
	EIGHT(name, 0, v, v, v, v, v, v, v, v); \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(kW7, const_w7)
LANES(kW1mW7, const_w1-const_w7)
LANES(kW1pW7, const_w1+const_w7)
LANES(kW3, const_w3)
LANES(kW3mW5, const_w3-const_w5)
LANES(kW3pW5, const_w3+const_w5)
LANES(kW6, const_w6)
LANES(kW2pW6, const_w2+const_w6)
LANES(kW2mW6, const_w2-const_w6)
LANES(kR2, const_r2)
LANES(k4, 4)
LANES(k128, 128)
LANES(k8192, 8192)
LANES(kSign, 0x80808080) // the level shift, on bytes saturated to int8

// columns is the zigzag index of each coefficient, column by column: where in
// a block (zigzag order) to gather the eight rows of column 0, column 1, ...
EIGHT(columns, 0, 0, 2, 3, 9, 10, 20, 21, 35)
EIGHT(columns, 32, 1, 4, 8, 11, 19, 22, 34, 36)
EIGHT(columns, 64, 5, 7, 12, 18, 23, 33, 37, 48)
EIGHT(columns, 96, 6, 13, 17, 24, 32, 38, 47, 49)
EIGHT(columns, 128, 14, 16, 25, 31, 39, 46, 50, 57)
EIGHT(columns, 160, 15, 26, 30, 40, 45, 51, 56, 58)
EIGHT(columns, 192, 27, 29, 41, 44, 52, 55, 59, 62)
EIGHT(columns, 224, 28, 42, 43, 53, 54, 60, 61, 63)
GLOBL columns<>(SB), RODATA|NOPTR, $256

// rowOrder gathers, from four rows packed as two halves of four columns each,
// the rows whole.
EIGHT(rowOrder, 0, 0, 4, 1, 5, 2, 6, 3, 7)
GLOBL rowOrder<>(SB), RODATA|NOPTR, $32

// COLUMN loads column n of the block, dequantized, into y: Y13 and Y14 are
// scratch (a gather consumes its mask).
#define COLUMN(n, y) \
	VMOVDQU    columns<>+32*n(SB), Y13; \
	VPCMPEQD   Y14, Y14, Y14; \
	VPGATHERDD Y14, (SI)(Y13*4), y; \
	VPMULLD    32*n(BX), y, y

// func idctAVX2(blk *block, q *[64]int32, dst *byte, stride int)
TEXT ·idctAVX2(SB), NOSPLIT, $0-32
	MOVQ blk+0(FP), SI
	MOVQ q+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ stride+24(FP), DX

	// Rows, all eight at once. Yn is idct.go's xn.
	COLUMN(0, Y0) // s[0]
	COLUMN(1, Y4) // s[1]
	COLUMN(2, Y3) // s[2]
	COLUMN(3, Y7) // s[3]
	COLUMN(4, Y1) // s[4]
	COLUMN(5, Y6) // s[5]
	COLUMN(6, Y2) // s[6]
	COLUMN(7, Y5) // s[7]

	// A row with no AC term is dc<<3 in idct.go, and from the butterfly too
	// unless s[0]<<11 wraps, which no JPEG's coefficients make it do. Only
	// then are those rows picked out (AX set) and blended in afterwards.
	XORL   AX, AX
	VPSLLD $11, Y0, Y9
	VPSRAD $11, Y9, Y10
	VPXOR  Y0, Y10, Y10
	VPTEST Y10, Y10
	JNZ    wraps

rows:
	VPADDD k128<>(SB), Y9, Y0 // x0 = s[0]<<11 + 128
	VPSLLD $11, Y1, Y1        // x1 = s[4] << 11

	VPADDD  Y4, Y5, Y8
	VPMULLD kW7<>(SB), Y8, Y8    // x8 = w7 * (x4 + x5)
	VPMULLD kW1mW7<>(SB), Y4, Y4
	VPADDD  Y8, Y4, Y4           // x4 = x8 + (w1-w7)*x4
	VPMULLD kW1pW7<>(SB), Y5, Y5
	VPSUBD  Y5, Y8, Y5           // x5 = x8 - (w1+w7)*x5
	VPADDD  Y6, Y7, Y8
	VPMULLD kW3<>(SB), Y8, Y8    // x8 = w3 * (x6 + x7)
	VPMULLD kW3mW5<>(SB), Y6, Y6
	VPSUBD  Y6, Y8, Y6           // x6 = x8 - (w3-w5)*x6
	VPMULLD kW3pW5<>(SB), Y7, Y7
	VPSUBD  Y7, Y8, Y7           // x7 = x8 - (w3+w5)*x7

	VPADDD  Y0, Y1, Y8           // x8 = x0 + x1
	VPSUBD  Y1, Y0, Y0           // x0 -= x1
	VPADDD  Y3, Y2, Y1
	VPMULLD kW6<>(SB), Y1, Y1    // x1 = w6 * (x3 + x2)
	VPMULLD kW2pW6<>(SB), Y2, Y2
	VPSUBD  Y2, Y1, Y2           // x2 = x1 - (w2+w6)*x2
	VPMULLD kW2mW6<>(SB), Y3, Y3
	VPADDD  Y1, Y3, Y3           // x3 = x1 + (w2-w6)*x3
	VPADDD  Y4, Y6, Y1           // x1 = x4 + x6
	VPSUBD  Y6, Y4, Y4           // x4 -= x6
	VPADDD  Y5, Y7, Y6           // x6 = x5 + x7
	VPSUBD  Y7, Y5, Y5           // x5 -= x7

	VPADDD  Y8, Y3, Y7         // x7 = x8 + x3
	VPSUBD  Y3, Y8, Y8         // x8 -= x3
	VPADDD  Y0, Y2, Y3         // x3 = x0 + x2
	VPSUBD  Y2, Y0, Y0         // x0 -= x2
	VPADDD  Y4, Y5, Y2
	VPMULLD kR2<>(SB), Y2, Y2
	VPADDD  k128<>(SB), Y2, Y2
	VPSRAD  $8, Y2, Y2         // x2 = (r2*(x4+x5) + 128) >> 8
	VPSUBD  Y5, Y4, Y4
	VPMULLD kR2<>(SB), Y4, Y4
	VPADDD  k128<>(SB), Y4, Y4
	VPSRAD  $8, Y4, Y4         // x4 = (r2*(x4-x5) + 128) >> 8

	// Yn becomes s[n], column n of the row pass's result.
	VPADDD Y0, Y4, Y9
	VPSUBD Y4, Y0, Y5
	VPADDD Y7, Y1, Y0
	VPSUBD Y1, Y7, Y7
	VPADDD Y3, Y2, Y1
	VPSUBD Y2, Y3, Y10
	VPADDD Y8, Y6, Y3
	VPSUBD Y6, Y8, Y4
	VPSRAD $8, Y0, Y0  // s[0] = (x7 + x1) >> 8
	VPSRAD $8, Y1, Y1  // s[1] = (x3 + x2) >> 8
	VPSRAD $8, Y9, Y2  // s[2] = (x0 + x4) >> 8
	VPSRAD $8, Y3, Y3  // s[3] = (x8 + x6) >> 8
	VPSRAD $8, Y4, Y4  // s[4] = (x8 - x6) >> 8
	VPSRAD $8, Y5, Y5  // s[5] = (x0 - x4) >> 8
	VPSRAD $8, Y10, Y6 // s[6] = (x3 - x2) >> 8
	VPSRAD $8, Y7, Y7  // s[7] = (x7 - x1) >> 8
	TESTL  AX, AX
	JNZ    blend

transpose:
	// A register becomes a row and a lane a column. The rows land where
	// the column pass wants them: Y(8+n) is idct.go's yn for n < 8, and Y0
	// will be y8.
	VPUNPCKLDQ  Y1, Y0, Y8
	VPUNPCKHDQ  Y1, Y0, Y9
	VPUNPCKLDQ  Y3, Y2, Y10
	VPUNPCKHDQ  Y3, Y2, Y11
	VPUNPCKLDQ  Y5, Y4, Y12
	VPUNPCKHDQ  Y5, Y4, Y13
	VPUNPCKLDQ  Y7, Y6, Y14
	VPUNPCKHDQ  Y7, Y6, Y15
	VPUNPCKLQDQ Y10, Y8, Y0        // rows 0 | 4, columns 0-3
	VPUNPCKHQDQ Y10, Y8, Y1        // rows 1 | 5
	VPUNPCKLQDQ Y11, Y9, Y2        // rows 2 | 6
	VPUNPCKHQDQ Y11, Y9, Y3        // rows 3 | 7
	VPUNPCKLQDQ Y14, Y12, Y4       // rows 0 | 4, columns 4-7
	VPUNPCKHQDQ Y14, Y12, Y5       // rows 1 | 5
	VPUNPCKLQDQ Y15, Y13, Y6       // rows 2 | 6
	VPUNPCKHQDQ Y15, Y13, Y7       // rows 3 | 7
	VPERM2I128  $0x20, Y4, Y0, Y8  // row 0
	VPERM2I128  $0x31, Y4, Y0, Y9  // row 4
	VPERM2I128  $0x20, Y5, Y1, Y12 // row 1
	VPERM2I128  $0x31, Y5, Y1, Y14 // row 5
	VPERM2I128  $0x20, Y6, Y2, Y11 // row 2
	VPERM2I128  $0x31, Y6, Y2, Y10 // row 6
	VPERM2I128  $0x20, Y7, Y3, Y15 // row 3
	VPERM2I128  $0x31, Y7, Y3, Y13 // row 7

	// Columns, all eight at once.
	VPSLLD $8, Y8, Y8
	VPADDD k8192<>(SB), Y8, Y8 // y0 = s[8*0]<<8 + 8192
	VPSLLD $8, Y9, Y9          // y1 = s[8*4] << 8

	VPADDD  Y12, Y13, Y0
	VPMULLD kW7<>(SB), Y0, Y0
	VPADDD  k4<>(SB), Y0, Y0       // y8 = w7*(y4+y5) + 4
	VPMULLD kW1mW7<>(SB), Y12, Y12
	VPADDD  Y0, Y12, Y12
	VPSRAD  $3, Y12, Y12           // y4 = (y8 + (w1-w7)*y4) >> 3
	VPMULLD kW1pW7<>(SB), Y13, Y13
	VPSUBD  Y13, Y0, Y13
	VPSRAD  $3, Y13, Y13           // y5 = (y8 - (w1+w7)*y5) >> 3
	VPADDD  Y14, Y15, Y0
	VPMULLD kW3<>(SB), Y0, Y0
	VPADDD  k4<>(SB), Y0, Y0       // y8 = w3*(y6+y7) + 4
	VPMULLD kW3mW5<>(SB), Y14, Y14
	VPSUBD  Y14, Y0, Y14
	VPSRAD  $3, Y14, Y14           // y6 = (y8 - (w3-w5)*y6) >> 3
	VPMULLD kW3pW5<>(SB), Y15, Y15
	VPSUBD  Y15, Y0, Y15
	VPSRAD  $3, Y15, Y15           // y7 = (y8 - (w3+w5)*y7) >> 3

	VPADDD  Y8, Y9, Y0             // y8 = y0 + y1
	VPSUBD  Y9, Y8, Y8             // y0 -= y1
	VPADDD  Y11, Y10, Y9
	VPMULLD kW6<>(SB), Y9, Y9
	VPADDD  k4<>(SB), Y9, Y9       // y1 = w6*(y3+y2) + 4
	VPMULLD kW2pW6<>(SB), Y10, Y10
	VPSUBD  Y10, Y9, Y10
	VPSRAD  $3, Y10, Y10           // y2 = (y1 - (w2+w6)*y2) >> 3
	VPMULLD kW2mW6<>(SB), Y11, Y11
	VPADDD  Y9, Y11, Y11
	VPSRAD  $3, Y11, Y11           // y3 = (y1 + (w2-w6)*y3) >> 3
	VPADDD  Y12, Y14, Y9           // y1 = y4 + y6
	VPSUBD  Y14, Y12, Y12          // y4 -= y6
	VPADDD  Y13, Y15, Y14          // y6 = y5 + y7
	VPSUBD  Y15, Y13, Y13          // y5 -= y7

	VPADDD  Y0, Y11, Y15         // y7 = y8 + y3
	VPSUBD  Y11, Y0, Y0          // y8 -= y3
	VPADDD  Y8, Y10, Y11         // y3 = y0 + y2
	VPSUBD  Y10, Y8, Y8          // y0 -= y2
	VPADDD  Y12, Y13, Y10
	VPMULLD kR2<>(SB), Y10, Y10
	VPADDD  k128<>(SB), Y10, Y10
	VPSRAD  $8, Y10, Y10         // y2 = (r2*(y4+y5) + 128) >> 8
	VPSUBD  Y13, Y12, Y12
	VPMULLD kR2<>(SB), Y12, Y12
	VPADDD  k128<>(SB), Y12, Y12
	VPSRAD  $8, Y12, Y12         // y4 = (r2*(y4-y5) + 128) >> 8

	// Y1-Y4 become rows 0-3 of the samples before the level shift, Y0 and
	// Y5-Y7 rows 4-7.
	VPADDD Y15, Y9, Y1
	VPSUBD Y9, Y15, Y7
	VPADDD Y11, Y10, Y2
	VPSUBD Y10, Y11, Y6
	VPADDD Y8, Y12, Y3
	VPSUBD Y12, Y8, Y5
	VPADDD Y0, Y14, Y4
	VPSUBD Y14, Y0, Y0
	VPSRAD $14, Y1, Y1 // (y7 + y1) >> 14
	VPSRAD $14, Y2, Y2 // (y3 + y2) >> 14
	VPSRAD $14, Y3, Y3 // (y0 + y4) >> 14
	VPSRAD $14, Y4, Y4 // (y8 + y6) >> 14
	VPSRAD $14, Y0, Y0 // (y8 - y6) >> 14
	VPSRAD $14, Y5, Y5 // (y0 - y4) >> 14
	VPSRAD $14, Y6, Y6 // (y3 - y2) >> 14
	VPSRAD $14, Y7, Y7 // (y7 - y1) >> 14

	// sample: saturating to int8 and flipping the sign bit is adding 128
	// and clamping to a byte.
	VPACKSSDW Y2, Y1, Y1
	VPACKSSDW Y4, Y3, Y3
	VPACKSSDW Y5, Y0, Y0
	VPACKSSDW Y7, Y6, Y6
	VPACKSSWB Y3, Y1, Y1
	VPACKSSWB Y6, Y0, Y0
	VMOVDQU   rowOrder<>(SB), Y2
	VPXOR     kSign<>(SB), Y1, Y1
	VPXOR     kSign<>(SB), Y0, Y0
	VPERMD    Y1, Y2, Y1         // rows 0-3
	VPERMD    Y0, Y2, Y0         // rows 4-7

	LEAQ         (DX)(DX*2), CX
	VEXTRACTI128 $1, Y1, X2
	VMOVQ        X1, (DI)
	VPEXTRQ      $1, X1, (DI)(DX*1)
	VMOVQ        X2, (DI)(DX*2)
	VPEXTRQ      $1, X2, (DI)(CX*1)
	LEAQ         (DI)(DX*4), DI
	VEXTRACTI128 $1, Y0, X2
	VMOVQ        X0, (DI)
	VPEXTRQ      $1, X0, (DI)(DX*1)
	VMOVQ        X2, (DI)(DX*2)
	VPEXTRQ      $1, X2, (DI)(CX*1)
	VZEROUPPER
	RET

wraps:
	// Y14 marks the rows with no AC term; Y15 is dc<<3, their result.
	VPOR     Y1, Y2, Y14
	VPOR     Y3, Y14, Y14
	VPOR     Y4, Y14, Y14
	VPOR     Y5, Y14, Y14
	VPOR     Y6, Y14, Y14
	VPOR     Y7, Y14, Y14
	VPXOR    Y15, Y15, Y15
	VPCMPEQD Y15, Y14, Y14
	VPSLLD   $3, Y0, Y15
	MOVL     $1, AX
	JMP      rows

blend:
	VPBLENDVB Y14, Y15, Y0, Y0
	VPBLENDVB Y14, Y15, Y1, Y1
	VPBLENDVB Y14, Y15, Y2, Y2
	VPBLENDVB Y14, Y15, Y3, Y3
	VPBLENDVB Y14, Y15, Y4, Y4
	VPBLENDVB Y14, Y15, Y5, Y5
	VPBLENDVB Y14, Y15, Y6, Y6
	VPBLENDVB Y14, Y15, Y7, Y7
	JMP       transpose

// func cpuHasAVX2() bool
//
// AVX2 is usable when the processor has it (leaf 7) and the operating system
// saves the YMM registers (OSXSAVE and AVX in leaf 1, XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $(1<<27 | 1<<28), CX
	CMPL   CX, $(1<<27 | 1<<28)
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	JCC    no
	MOVB   $1, ret+0(FP)

no:
	RET
