//go:build amd64 && !hdmm_noasm

#include "textflag.h"

// func axpyAVX2(alpha float64, dst, src []float64)
//
// dst[j] += alpha*src[j] for j in [0, len(dst)). Elementwise, so the
// vectorization cannot reorder any addition: bit-identical to the
// scalar loop on every input.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX

aloop8:
	CMPQ AX, DX
	JGE  atail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     aloop8

atail:
	CMPQ AX, CX
	JGE  adone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    atail

adone:
	VZEROUPPER
	RET

// func contractTNTileAVX2(dst []float64, dstride int, a []float64, astride int, b []float64, bstride int, k int)
//
// One 8×4 tile of the ContractTN kernel:
//   dst[t*dstride + c] = Σ_{q<k} a[q*astride + t] · b[q*bstride + c]
// for t < 8, c < 4, with q ascending. Accumulators Y0..Y7 hold column c
// for rows 0-3 (Y{2c}) and rows 4-7 (Y{2c+1}); each lane is its own
// serial chain (VMULPD then VADDPD, never FMA), so every element is the
// scalar loop's exact sum. The tile is transposed in registers (unpack +
// 128-bit permute) so each output row is written with one store.
TEXT ·contractTNTileAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dstride+24(FP), DX
	MOVQ a_base+32(FP), SI
	MOVQ astride+56(FP), R8
	MOVQ b_base+64(FP), BX
	MOVQ bstride+88(FP), R9
	MOVQ k+96(FP), CX
	SHLQ $3, DX
	SHLQ $3, R8
	SHLQ $3, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JE    tstore

tloop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(BX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 16(BX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 24(BX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R8, SI
	ADDQ         R9, BX
	DECQ         CX
	JNZ          tloop

tstore:
	// Rows 0-3 from Y0, Y2, Y4, Y6.
	VUNPCKLPD  Y2, Y0, Y8         // c0t0 c1t0 c0t2 c1t2
	VUNPCKHPD  Y2, Y0, Y9         // c0t1 c1t1 c0t3 c1t3
	VUNPCKLPD  Y6, Y4, Y10        // c2t0 c3t0 c2t2 c3t2
	VUNPCKHPD  Y6, Y4, Y11        // c2t1 c3t1 c2t3 c3t3
	VPERM2F128 $0x20, Y10, Y8, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x20, Y11, Y9, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x31, Y10, Y8, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x31, Y11, Y9, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI

	// Rows 4-7 from Y1, Y3, Y5, Y7.
	VUNPCKLPD  Y3, Y1, Y8
	VUNPCKHPD  Y3, Y1, Y9
	VUNPCKLPD  Y7, Y5, Y10
	VUNPCKHPD  Y7, Y5, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x20, Y11, Y9, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x31, Y10, Y8, Y12
	VMOVUPD    Y12, (DI)
	ADDQ       DX, DI
	VPERM2F128 $0x31, Y11, Y9, Y12
	VMOVUPD    Y12, (DI)
	VZEROUPPER
	RET

// func axpyRowAVX2(c []float64, a []float64, off []int, b []float64, strips int)
//
// One output row of the Mul/MulTN kernel over strips × 16 columns:
//   c[j] += Σ_{t<len(a)} a[t] · b[off[t] + j]
// for j < 16*strips, t ascending. The caller gathers the row's nonzero
// multipliers into a and their B row offsets into off, so the zero skip is
// the gather itself. Per strip the 16 accumulators sit in Y0..Y3 across
// the whole t loop; products are VMULPD then VADDPD, never FMA, and every
// lane is its own serial chain.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-104
	MOVQ  c_base+0(FP), DI
	MOVQ  a_base+24(FP), SI
	MOVQ  a_len+32(FP), CX
	MOVQ  off_base+48(FP), R8
	MOVQ  b_base+72(FP), BX
	MOVQ  strips+96(FP), DX
	TESTQ DX, DX
	JE    rdone

rstrip:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    AX, AX
	TESTQ   CX, CX
	JE      rstore

rloop:
	VBROADCASTSD (SI)(AX*8), Y4
	MOVQ         (R8)(AX*8), R9
	LEAQ         (BX)(R9*8), R9
	VMULPD       (R9), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R9), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R9), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R9), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         AX
	CMPQ         AX, CX
	JL           rloop

rstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	DECQ    DX
	JNZ     rstrip

rdone:
	VZEROUPPER
	RET

// func dotBandAVX2(out []float64, a []float64, a0, a1, a2, a3 int, bt []float64, ld, k, strips int)
//
// One four-row band of the MulNT and ContractNT kernels over strips × 8
// columns:
//   out[r*ld + j] = Σ_{q<k} a[ar + q] · bt[q*ld + j]
// for r < 4 and j < 8*strips, q ascending from zero, where bt is the other
// operand transposed. Per strip the 4×8 tile sits in Y0..Y7 (row r in
// Y{2r}, Y{2r+1}) across the whole k loop. Each lane is one output
// element's serial dot product: VMULPD then VADDPD, never FMA, and no zero
// skips.
TEXT ·dotBandAVX2(SB), NOSPLIT, $0-128
	MOVQ  strips+120(FP), SI
	TESTQ SI, SI
	JE    ddone
	MOVQ  a_base+24(FP), DI
	MOVQ  a0+48(FP), R8
	LEAQ  (DI)(R8*8), R8
	MOVQ  a1+56(FP), R9
	LEAQ  (DI)(R9*8), R9
	MOVQ  a2+64(FP), R10
	LEAQ  (DI)(R10*8), R10
	MOVQ  a3+72(FP), R11
	LEAQ  (DI)(R11*8), R11
	MOVQ  ld+104(FP), R12
	SHLQ  $3, R12
	MOVQ  out_base+0(FP), DI
	XORQ  DX, DX // byte offset of the strip's first column

dstrip:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   bt_base+80(FP), BX
	ADDQ   DX, BX
	MOVQ   k+112(FP), CX
	XORQ   AX, AX // byte offset of q within each row of a
	TESTQ  CX, CX
	JE     dstore

dloop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (R8)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R9)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R10)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R11)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, AX
	ADDQ         R12, BX
	DECQ         CX
	JNZ          dloop

dstore:
	LEAQ    (DI)(DX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ    R12, R13
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, 32(R13)
	ADDQ    R12, R13
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	ADDQ    R12, R13
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	ADDQ    $64, DX
	DECQ    SI
	JNZ     dstrip

ddone:
	VZEROUPPER
	RET

// logConst holds logAVX2's constants, one float64 each, broadcast into
// lanes with VBROADCASTSD: the frexp masks, the 2⁵² conversion pair, √½,
// 1, 2, the domain bounds, and the constants of math.Log (L1..L7, Ln2Hi,
// Ln2Lo, the same bits as $GOROOT/src/math/log_amd64.s).
DATA logConst<>+0x00(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA logConst<>+0x08(SB)/8, $0x3FE0000000000000 // 0.5
DATA logConst<>+0x10(SB)/8, $0x4330000000000000 // 2⁵²
DATA logConst<>+0x18(SB)/8, $0x43300000000003FE // 2⁵² + 1022
DATA logConst<>+0x20(SB)/8, $0x3FE6A09E667F3BCD // √½
DATA logConst<>+0x28(SB)/8, $0x3FF0000000000000 // 1
DATA logConst<>+0x30(SB)/8, $0x4000000000000000 // 2
DATA logConst<>+0x38(SB)/8, $0x0010000000000000 // smallest normal
DATA logConst<>+0x40(SB)/8, $0x7FF0000000000000 // +Inf
DATA logConst<>+0x48(SB)/8, $0x3FE5555555555593 // L1
DATA logConst<>+0x50(SB)/8, $0x3FD999999997FA04 // L2
DATA logConst<>+0x58(SB)/8, $0x3FD2492494229359 // L3
DATA logConst<>+0x60(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA logConst<>+0x68(SB)/8, $0x3FC7466496CB03DE // L5
DATA logConst<>+0x70(SB)/8, $0x3FC39A09D078C69F // L6
DATA logConst<>+0x78(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA logConst<>+0x80(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA logConst<>+0x88(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
GLOBL logConst<>(SB), RODATA|NOPTR, $0x90

// func logAVX2(dst, x []float64) int
//
// dst[i] = math.Log(x[i]) four lanes at a time, for groups of four up to
// len(x) &^ 3, stopping before the first group with a lane that is not a
// positive, normal, finite float64; it returns the number of elements
// written. Per lane it is the instruction sequence of Go's amd64 archLog:
// frexp by bit masks, the √½ compare-and-mask, s = f/(2+f), the two
// polynomials, and k*Ln2Hi − ((hfsq − (s*(hfsq+R) + k*Ln2Lo)) − f), with
// VMULPD and VADDPD/VSUBPD in archLog's order and never FMA, so every lane
// has math.Log's bits. The exponent k becomes a float64 exactly: the
// biased exponent OR 2⁵²'s bits is 2⁵² + e, and subtracting 2⁵² + 1022
// leaves e − 1022. Every constant is loaded with VBROADCASTSD: moving one
// through a general register into a legacy-SSE X register inside the
// loop would cost an AVX–SSE transition per use.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	ANDQ         $-4, CX
	XORQ         AX, AX
	VBROADCASTSD logConst<>+0x00(SB), Y15 // mantissa mask
	VBROADCASTSD logConst<>+0x08(SB), Y14 // 0.5
	VBROADCASTSD logConst<>+0x10(SB), Y13 // 2⁵²
	VBROADCASTSD logConst<>+0x18(SB), Y12 // 2⁵² + 1022
	VBROADCASTSD logConst<>+0x20(SB), Y11 // √½
	VBROADCASTSD logConst<>+0x28(SB), Y10 // 1
	VBROADCASTSD logConst<>+0x38(SB), Y9  // smallest normal
	VBROADCASTSD logConst<>+0x40(SB), Y8  // +Inf

lloop:
	CMPQ      AX, CX
	JGE       ldone
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x0D, Y9, Y0, Y1 // x ≥ smallest normal (false for NaN)
	VCMPPD    $0x01, Y8, Y0, Y2 // x < +Inf
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       ldone

	// f1 = x's fraction in [½, 1), k = its exponent − 1022.
	VANDPD Y15, Y0, Y1
	VORPD  Y14, Y1, Y1
	VPSRLQ $52, Y0, Y2
	VPOR   Y13, Y2, Y2
	VSUBPD Y12, Y2, Y2

	// Where f1 ≤ √½: k −= 1, f1 *= 2. Then f = f1 − 1.
	VCMPPD $0x05, Y1, Y11, Y3 // not (√½ < f1)
	VANDPD Y10, Y3, Y3        // 1 or 0
	VSUBPD Y3, Y2, Y2
	VADDPD Y10, Y3, Y3        // 2 or 1
	VMULPD Y3, Y1, Y1
	VSUBPD Y10, Y1, Y1

	// s = f/(2+f), s2 = s·s, s4 = s2·s2.
	VBROADCASTSD logConst<>+0x30(SB), Y3
	VADDPD       Y1, Y3, Y3
	VDIVPD       Y3, Y1, Y3
	VMULPD       Y3, Y3, Y4
	VMULPD       Y4, Y4, Y5

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))).
	VBROADCASTSD logConst<>+0x78(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logConst<>+0x68(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logConst<>+0x58(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logConst<>+0x48(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y4, Y4

	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2.
	VBROADCASTSD logConst<>+0x70(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logConst<>+0x60(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logConst<>+0x50(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y5, Y5
	VADDPD       Y5, Y4, Y4

	// hfsq = 0.5·f·f.
	VMULPD Y14, Y1, Y5
	VMULPD Y1, Y5, Y5

	// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
	VADDPD       Y5, Y4, Y4
	VMULPD       Y4, Y3, Y3
	VBROADCASTSD logConst<>+0x88(SB), Y6
	VMULPD       Y2, Y6, Y6
	VADDPD       Y6, Y3, Y3
	VSUBPD       Y3, Y5, Y5
	VSUBPD       Y1, Y5, Y5
	VBROADCASTSD logConst<>+0x80(SB), Y6
	VMULPD       Y6, Y2, Y2
	VSUBPD       Y5, Y2, Y2
	VMOVUPD      Y2, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          lloop

ldone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
