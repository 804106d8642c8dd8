package tensor

import (
	"encoding/binary"
	"fmt"
)

// Integer GEMM kernels for the int8 inference engine. The affine
// quantization scheme (r = S(q − Z), Jacob et al., CVPR 2018) turns every
// conv and linear layer into a uint8×int8 matrix product accumulated in
// int32; these kernels are the integer mirror of the float GEMMs in
// matmul.go — the same (8-row × column-block) output tiling, the same
// 4-way-unrolled AXPY/dot inner loops, and the same ParallelFor task
// decomposition, so an integer GEMM is bit-identical for any worker count.
//
// Operands are raw slices (the tensor type is float32-only); shapes are
// passed explicitly and validated against slice lengths. There is no
// assembly path: the portable loops keep the multiply-accumulate in int32,
// which Go compiles to clean scalar code on every architecture.
//
// Each kernel dispatches its block body through a named helper and runs a
// plain serial loop when the worker bound is 1: the inference engine's
// zero-allocation contract counts on the serial path creating no
// ParallelFor closures (a closure passed to ParallelFor escapes to the
// heap; a direct call does not).

// checkGEMMInt validates that the slices cover the requested shapes.
func checkGEMMInt(op string, lenDst, lenA, lenB, m, k, n int) error {
	if m <= 0 || k <= 0 || n <= 0 {
		return fmt.Errorf("%w: %s dims (%d,%d,%d) must be positive", ErrShape, op, m, k, n)
	}
	if lenA < m*k {
		return fmt.Errorf("%w: %s operand a has %d elements, want >= %d", ErrShape, op, lenA, m*k)
	}
	if lenB < k*n {
		return fmt.Errorf("%w: %s operand b has %d elements, want >= %d", ErrShape, op, lenB, k*n)
	}
	if lenDst < m*n {
		return fmt.Errorf("%w: %s destination has %d elements, want >= %d", ErrShape, op, lenDst, m*n)
	}
	return nil
}

// MatMulU8I8Into computes dst = a·b where a is a row-major uint8 (m, k)
// matrix (quantized activations), b is a row-major int8 (k, n) matrix and
// dst accumulates in int32. dst is fully overwritten and must not alias
// the operands.
func MatMulU8I8Into(dst []int32, a []uint8, b []int8, m, k, n int) error {
	if err := checkGEMMInt("matmulU8I8", len(dst), len(a), len(b), m, k, n); err != nil {
		return err
	}
	mb, nb := blocks(m, gemmRowBlock), blocks(n, gemmColBlock)
	if maxWorkers == 1 {
		for t := 0; t < mb*nb; t++ {
			gemmU8I8Block(dst, a, b, m, k, n, nb, t)
		}
		return nil
	}
	ParallelFor(mb*nb, func(t int) { gemmU8I8Block(dst, a, b, m, k, n, nb, t) })
	return nil
}

func gemmU8I8Block(dst []int32, a []uint8, b []int8, m, k, n, nb, t int) {
	ib, jb := t/nb, t%nb
	i1 := min((ib+1)*gemmRowBlock, m)
	j0 := jb * gemmColBlock
	j1 := min(j0+gemmColBlock, n)
	for i := ib * gemmRowBlock; i < i1; i++ {
		orow := dst[i*n+j0 : i*n+j1]
		for j := range orow {
			orow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		p := 0
		for ; p+3 < k; p += 4 {
			axpy4I8(orow,
				b[p*n+j0:p*n+j1],
				b[(p+1)*n+j0:(p+1)*n+j1],
				b[(p+2)*n+j0:(p+2)*n+j1],
				b[(p+3)*n+j0:(p+3)*n+j1],
				int32(arow[p]), int32(arow[p+1]), int32(arow[p+2]), int32(arow[p+3]))
		}
		for ; p < k; p++ {
			axpy1I8(orow, b[p*n+j0:p*n+j1], int32(arow[p]))
		}
	}
}

// MatMulU8I8TransBInto computes dst = a·bᵀ where a is uint8 (m, k) and b
// is int8 (n, k) — the integer linear layer (activations × weightᵀ), with
// both operands streamed along contiguous k-rows so each output element is
// one inner product. Output tiles follow the same (row block × column
// block) decomposition as the other integer GEMMs, so narrow-batch tall
// products still fan out across the worker pool. dst is fully
// overwritten.
func MatMulU8I8TransBInto(dst []int32, a []uint8, b []int8, m, k, n int) error {
	if err := checkGEMMInt("matmulU8I8TB", len(dst), len(a), len(b), m, k, n); err != nil {
		return err
	}
	mb, nb := blocks(m, gemmRowBlock), blocks(n, gemmColBlock)
	if maxWorkers == 1 {
		for t := 0; t < mb*nb; t++ {
			gemmU8I8TransBBlock(dst, a, b, m, k, n, nb, t)
		}
		return nil
	}
	ParallelFor(mb*nb, func(t int) { gemmU8I8TransBBlock(dst, a, b, m, k, n, nb, t) })
	return nil
}

func gemmU8I8TransBBlock(dst []int32, a []uint8, b []int8, m, k, n, nb, t int) {
	ib, jb := t/nb, t%nb
	i1 := min((ib+1)*gemmRowBlock, m)
	j0 := jb * gemmColBlock
	j1 := min(j0+gemmColBlock, n)
	for i := ib * gemmRowBlock; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n+j0 : i*n+j1]
		for j := range orow {
			orow[j] = dotU8I8(arow, b[(j0+j)*k:(j0+j+1)*k])
		}
	}
}

// MatMulI8U8Into computes dst = a·b where a is int8 (m, k) (quantized
// weights) and b is uint8 (k, n) (im2col'd activations) — the integer
// convolution GEMM, producing the channel-major (outC, N·OH·OW) layout the
// requantization pass reorders into NCHW. dst is fully overwritten.
func MatMulI8U8Into(dst []int32, a []int8, b []uint8, m, k, n int) error {
	if err := checkGEMMInt("matmulI8U8", len(dst), len(a), len(b), m, k, n); err != nil {
		return err
	}
	mb, nb := blocks(m, gemmRowBlock), blocks(n, gemmColBlock)
	if maxWorkers == 1 {
		for t := 0; t < mb*nb; t++ {
			gemmI8U8Block(dst, a, b, m, k, n, nb, t)
		}
		return nil
	}
	ParallelFor(mb*nb, func(t int) { gemmI8U8Block(dst, a, b, m, k, n, nb, t) })
	return nil
}

func gemmI8U8Block(dst []int32, a []int8, b []uint8, m, k, n, nb, t int) {
	ib, jb := t/nb, t%nb
	i1 := min((ib+1)*gemmRowBlock, m)
	j0 := jb * gemmColBlock
	j1 := min(j0+gemmColBlock, n)
	for i := ib * gemmRowBlock; i < i1; i++ {
		orow := dst[i*n+j0 : i*n+j1]
		for j := range orow {
			orow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		p := 0
		for ; p+3 < k; p += 4 {
			axpy4U8(orow,
				b[p*n+j0:p*n+j1],
				b[(p+1)*n+j0:(p+1)*n+j1],
				b[(p+2)*n+j0:(p+2)*n+j1],
				b[(p+3)*n+j0:(p+3)*n+j1],
				int32(arow[p]), int32(arow[p+1]), int32(arow[p+2]), int32(arow[p+3]))
		}
		for ; p < k; p++ {
			axpy1U8(orow, b[p*n+j0:p*n+j1], int32(arow[p]))
		}
	}
}

// axpy4I8 computes dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// with int8 row segments widened to int32.
func axpy4I8(dst []int32, b0, b1, b2, b3 []int8, a0, a1, a2, a3 int32) {
	n := len(dst)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for j := range dst {
		dst[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
	}
}

func axpy1I8(dst []int32, b []int8, a int32) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += a * int32(b[j])
	}
}

// axpy4U8 is axpy4I8 for uint8 row segments.
func axpy4U8(dst []int32, b0, b1, b2, b3 []uint8, a0, a1, a2, a3 int32) {
	n := len(dst)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for j := range dst {
		dst[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
	}
}

func axpy1U8(dst []int32, b []uint8, a int32) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += a * int32(b[j])
	}
}

// dotU8I8 returns the int32 inner product of a uint8 row and an int8 row.
// Four partial accumulators break the add dependency chain, mirroring the
// float dot kernel (integer adds are associative, so this is exact).
func dotU8I8(a []uint8, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	j := 0
	for ; j+3 < len(a); j += 4 {
		s0 += int32(a[j]) * int32(b[j])
		s1 += int32(a[j+1]) * int32(b[j+1])
		s2 += int32(a[j+2]) * int32(b[j+2])
		s3 += int32(a[j+3]) * int32(b[j+3])
	}
	for ; j < len(a); j++ {
		s0 += int32(a[j]) * int32(b[j])
	}
	return s0 + s1 + s2 + s3
}

// Im2ColBatchU8Into unrolls a quantized NCHW batch (raw uint8 payload,
// geometry g, n samples) into a (C·KH·KW, N·OH·OW) column matrix, exactly
// like the float test oracle Im2ColBatchInto. Out-of-bounds taps are
// filled with pad — the activation grid's zero point, which represents
// exact float zero — so the consuming GEMM needs no border
// special-casing: subtracting Z_x·Σq_w over the full kernel is the exact
// zero-point correction at every output position. dst is fully
// overwritten.
func Im2ColBatchU8Into(dst, src []uint8, n int, g ConvGeom, pad uint8) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("%w: im2col u8 batch size %d", ErrShape, n)
	}
	inSz := g.InC * g.InH * g.InW
	if len(src) < n*inSz {
		return fmt.Errorf("%w: im2col u8 src has %d elements, want >= %d", ErrShape, len(src), n*inSz)
	}
	oh, ow := g.OutHW()
	if len(dst) < g.InC*g.KH*g.KW*n*oh*ow {
		return fmt.Errorf("%w: im2col u8 dst has %d elements, want >= %d", ErrShape, len(dst), g.InC*g.KH*g.KW*n*oh*ow)
	}
	if maxWorkers == 1 {
		for i := 0; i < n; i++ {
			im2colU8Sample(dst, src, n, g, pad, i)
		}
		return nil
	}
	ParallelFor(n, func(i int) { im2colU8Sample(dst, src, n, g, pad, i) })
	return nil
}

// Im2ColBatchU8PatchesInto unrolls a quantized NCHW batch into the
// patch-major (N·OH·OW, C·KH·KW) layout the packed integer GEMM consumes:
// one row per output position holding that position's receptive field,
// sample-major so batched results are bit-identical to per-sample runs.
// Out-of-bounds taps are filled with pad (the activation zero point), as
// in Im2ColBatchU8Into. dst is fully overwritten over the first
// N·OH·OW·C·KH·KW elements.
func Im2ColBatchU8PatchesInto(dst, src []uint8, n int, g ConvGeom, pad uint8) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("%w: im2col u8 patches batch size %d", ErrShape, n)
	}
	inSz := g.InC * g.InH * g.InW
	if len(src) < n*inSz {
		return fmt.Errorf("%w: im2col u8 patches src has %d elements, want >= %d", ErrShape, len(src), n*inSz)
	}
	oh, ow := g.OutHW()
	if len(dst) < n*oh*ow*g.InC*g.KH*g.KW {
		return fmt.Errorf("%w: im2col u8 patches dst has %d elements, want >= %d",
			ErrShape, len(dst), n*oh*ow*g.InC*g.KH*g.KW)
	}
	if maxWorkers == 1 {
		for i := 0; i < n; i++ {
			im2colU8Patch(dst, src, g, pad, i)
		}
		return nil
	}
	ParallelFor(n, func(i int) { im2colU8Patch(dst, src, g, pad, i) })
	return nil
}

// im2colXRange computes the interior output-column range [xlo, xhi] of a
// conv geometry: the columns where every kernel tap reads in-bounds. The
// range may be empty (a kernel wider than InW+Pad, e.g. a 7×7 over a
// tiny feature map): it is clamped to [xlo, xlo-1] so the edge loops
// cover every column and neither starts below zero. A negative numerator
// means NO column is interior — it must not go through Go's toward-zero
// division, which would round (−1)/2 up to 0 and admit an out-of-bounds
// column into the unrolled fast path.
func im2colXRange(g ConvGeom, ow int) (xlo, xhi int) {
	xlo = (g.Pad + g.Stride - 1) / g.Stride
	if xlo > ow {
		xlo = ow
	}
	xhi = -1
	if num := g.InW - g.KW + g.Pad; num >= 0 {
		xhi = num / g.Stride
	}
	if xhi > ow-1 {
		xhi = ow - 1
	}
	if xhi < xlo-1 {
		xhi = xlo - 1
	}
	return xlo, xhi
}

// Im2ColSampleU8PatchesInto packs a single sample's patch-major rows:
// dst holds OH·OW rows of C·KH·KW bytes, exactly the slice of an
// Im2ColBatchU8PatchesInto destination that sample would own. The
// serving engine's fused quantize+pack path uses it to pack each sample
// straight out of a small per-worker image buffer (quantize → pack in
// one pass) instead of staging the whole quantized batch first; packed
// bytes are bit-identical to the batch packer's.
func Im2ColSampleU8PatchesInto(dst, img []uint8, g ConvGeom, pad uint8) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(img) < g.InC*g.InH*g.InW {
		return fmt.Errorf("%w: im2col u8 sample src has %d elements, want >= %d",
			ErrShape, len(img), g.InC*g.InH*g.InW)
	}
	oh, ow := g.OutHW()
	if len(dst) < oh*ow*g.InC*g.KH*g.KW {
		return fmt.Errorf("%w: im2col u8 sample dst has %d elements, want >= %d",
			ErrShape, len(dst), oh*ow*g.InC*g.KH*g.KW)
	}
	im2colU8Patch(dst, img, g, pad, 0)
	return nil
}

// im2colU8Patch packs one sample's patch-major rows: the materialized
// im2col path, one call per sample, row core shared with the implicit
// driver's band gather (bit-identity between the two lowerings reduces
// to both running this exact store sequence).
func im2colU8Patch(dst, src []uint8, g ConvGeom, pad uint8, i int) {
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	inSz := g.InC * g.InH * g.InW
	img := src[i*inSz : (i+1)*inSz]
	sp := oh * ow
	xlo, xhi := im2colXRange(g, ow)
	for oy := 0; oy < oh; oy++ {
		im2colU8PatchRow(dst[(i*sp+oy*ow)*kdim:][:ow*kdim], img, g, pad, oy, xlo, xhi)
	}
}

// im2colU8PatchRow packs one output row's ow patch rows into rows
// (ow·kdim bytes). The loop nest runs (channel, kernel row) outermost
// with the output COLUMN innermost, so all per-row decisions — the
// vertical padding case, the source row slice, the interior x range —
// are hoisted out of the inner loop, which then does nothing but direct
// stores from a sliding source window (this is the hottest store loop of
// the integer conv path; with the naive position-major nest it cost more
// than the GEMM it feeds).
//
// Interior segments go through word-wide copies (4 bytes for KW=3, 8 for
// KW=5) wherever both ends are safe: the source word must not read past
// the input row (sx+w ≤ InW; a scalar tail covers the rest), and the
// store's spill bytes — a 4-byte store of a 3-byte segment lands one
// byte into offset p+KW, the first byte of the NEXT tap row at the same
// position — are only allowed when that tap row is still unwritten,
// i.e. on every tap row except the last (the last row's spill would land
// in the next position's already-written tap row 0, so it stays scalar).
func im2colU8PatchRow(rows, img []uint8, g ConvGeom, pad uint8, oy, xlo, xhi int) {
	if g.KH == 3 && g.KW == 3 {
		im2colU8PatchRow3(rows, img, g, pad, oy, xlo, xhi)
		return
	}
	kdim := g.InC * g.KH * g.KW
	ow := len(rows) / kdim
	p := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			iy := oy*g.Stride + kh - g.Pad
			if iy < 0 || iy >= g.InH {
				for ox := 0; ox < ow; ox++ {
					seg := rows[ox*kdim+p:][:g.KW]
					for t := range seg {
						seg[t] = pad
					}
				}
				p += g.KW
				continue
			}
			srow := img[base+iy*g.InW : base+(iy+1)*g.InW]
			edge := func(ox int) { // per-tap checks, left/right borders only
				ix0 := ox*g.Stride - g.Pad
				seg := rows[ox*kdim+p:][:g.KW]
				for t := range seg {
					if ix := ix0 + t; ix < 0 || ix >= g.InW {
						seg[t] = pad
					} else {
						seg[t] = srow[ix]
					}
				}
			}
			// Borders of the ubiquitous 3×3/stride-1/pad-1 conv (one
			// padded tap on each side, ow == InW): written directly,
			// skipping the per-tap bounds checks of the generic edge
			// closure — the borders are a fixed share of every row, so
			// the closure's per-byte compare-and-branch shows up in
			// serving profiles.
			fast3 := g.KW == 3 && g.Stride == 1 && g.Pad == 1 && xlo == 1 && xhi == ow-2
			if fast3 {
				rows[p] = pad
				rows[p+1] = srow[0]
				rows[p+2] = srow[1]
				dr := (ow-1)*kdim + p
				rows[dr] = srow[g.InW-2]
				rows[dr+1] = srow[g.InW-1]
				rows[dr+2] = pad
			} else {
				for ox := 0; ox < xlo; ox++ {
					edge(ox)
				}
			}
			// Interior: incremented indices only — no per-iteration
			// slicing, one multiply-free sliding window.
			ox := xlo
			d := xlo*kdim + p
			sx := xlo*g.Stride - g.Pad
			switch g.KW {
			case 3: // the dominant conv kernel
				if p+3 < kdim { // spill lands in the next tap row: allowed
					for ; ox <= xhi && sx+4 <= g.InW; ox++ {
						putU32(rows[d:d+4], getU32(srow[sx:sx+4]))
						d += kdim
						sx += g.Stride
					}
				}
				for ; ox <= xhi; ox++ {
					rows[d] = srow[sx]
					rows[d+1] = srow[sx+1]
					rows[d+2] = srow[sx+2]
					d += kdim
					sx += g.Stride
				}
			case 5:
				if p+5 < kdim {
					for ; ox <= xhi && sx+8 <= g.InW; ox++ {
						putU64(rows[d:d+8], getU64(srow[sx:sx+8]))
						d += kdim
						sx += g.Stride
					}
				}
				for ; ox <= xhi; ox++ {
					rows[d] = srow[sx]
					rows[d+1] = srow[sx+1]
					rows[d+2] = srow[sx+2]
					rows[d+3] = srow[sx+3]
					rows[d+4] = srow[sx+4]
					d += kdim
					sx += g.Stride
				}
			case 1:
				for ; ox <= xhi; ox++ {
					rows[d] = srow[sx]
					d += kdim
					sx += g.Stride
				}
			default:
				for ; ox <= xhi; ox++ {
					copy(rows[d:d+g.KW], srow[sx:])
					d += kdim
					sx += g.Stride
				}
			}
			if !fast3 {
				for ox := xhi + 1; ox < ow; ox++ {
					edge(ox)
				}
			}
			p += g.KW
		}
	}
}

// pack3Asm, when non-nil, is the SIMD interior gather for 3×3 patch
// blocks: for each of n output positions it composes nc channels' 9-tap
// blocks from three receptive-field row cursors (position stride
// `stride`, channel stride `plane`) and stores them at position stride
// kdim / channel stride 9. Its 16-byte stores spill 7 zero bytes into
// the NEXT channel's block at the same position — invisible because a
// later pass fully rewrites that block — so nc must leave the final
// channel to the exact Go stores (nc ≤ InC-1, i.e. p+16 ≤ kdim for
// every routed channel).
var pack3Asm func(dst, r0, r1, r2 []uint8, n, nc, kdim, stride, plane int)

// im2colU8PatchRow3 packs one output row for the dominant 3×3 kernel.
// Instead of the generic nest's three separate tap-row sweeps (each a
// strided scatter of 3-byte groups), it walks positions once per channel
// and composes the whole 9-tap block in registers: three word loads —
// one per receptive-field row — merge into a single 8-byte store plus a
// byte store, cutting both the store count and the per-iteration loop
// overhead roughly in half. Vertical padding folds into the same path as
// a preloaded 3×pad word, so out-of-range field rows cost nothing extra.
// Interior positions too close to the row end for a 4-byte load fall
// back to merged 3-byte loads, not to the per-tap edge path — on 8-wide
// feature maps those tails are a third of every row.
func im2colU8PatchRow3(rows, img []uint8, g ConvGeom, pad uint8, oy, xlo, xhi int) {
	kdim := g.InC * 9
	ow := len(rows) / kdim
	padW := uint32(pad) * 0x010101 // three pad bytes, high byte clear
	iy0 := oy*g.Stride - g.Pad
	ok0 := iy0 >= 0 && iy0 < g.InH
	ok1 := iy0+1 >= 0 && iy0+1 < g.InH
	ok2 := iy0+2 >= 0 && iy0+2 < g.InH
	// SIMD sweep: one kernel call covers the word-loadable interior span
	// for every channel except the last (whose 16-byte stores would spill
	// past the position row). Needs all three field rows in-bounds; rows
	// with vertical padding stay on the scalar compose below.
	sweepC, nw := 0, 0
	sx0 := xlo*g.Stride - g.Pad
	if pack3Asm != nil && ok0 && ok1 && ok2 && g.InC > 1 &&
		xhi >= xlo && sx0+4 <= g.InW {
		nw = (g.InW-4-sx0)/g.Stride + 1
		if m := xhi - xlo + 1; nw > m {
			nw = m
		}
		sweepC = g.InC - 1
		plane := g.InH * g.InW
		s := iy0*g.InW + sx0
		pack3Asm(rows[xlo*kdim:], img[s:], img[s+g.InW:], img[s+2*g.InW:],
			nw, sweepC, kdim, g.Stride, plane)
	}
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		p := c * 9
		// The three receptive-field rows; a nil row means vertical padding.
		var r0, r1, r2 []uint8
		if ok0 {
			r0 = img[base+iy0*g.InW : base+(iy0+1)*g.InW]
		}
		if ok1 {
			r1 = img[base+(iy0+1)*g.InW : base+(iy0+2)*g.InW]
		}
		if ok2 {
			r2 = img[base+(iy0+2)*g.InW : base+(iy0+3)*g.InW]
		}
		for ox := 0; ox < xlo; ox++ {
			im2colU8Edge3(rows, r0, r1, r2, g, pad, ox*kdim+p, ox*g.Stride-g.Pad)
		}
		ox := xlo
		if c < sweepC {
			ox = xlo + nw // interior span already packed by the SIMD sweep
		}
		d := ox*kdim + p
		sx := ox*g.Stride - g.Pad
		w0, w1, w2 := padW, padW, padW
		for ; ox <= xhi && sx+4 <= g.InW; ox++ {
			if r0 != nil {
				w0 = getU32(r0[sx : sx+4])
			}
			if r1 != nil {
				w1 = getU32(r1[sx : sx+4])
			}
			if r2 != nil {
				w2 = getU32(r2[sx : sx+4])
			}
			putU64(rows[d:d+8],
				uint64(w0&0xFFFFFF)|uint64(w1&0xFFFFFF)<<24|uint64(w2&0xFFFF)<<48)
			rows[d+8] = uint8(w2 >> 16)
			d += kdim
			sx += g.Stride
		}
		// Interior tail: taps are in-bounds (ox ≤ xhi) but a 4-byte load
		// would run past the input row; merge exact 3-byte loads instead.
		for ; ox <= xhi; ox++ {
			if r0 != nil {
				w0 = getU24(r0[sx : sx+3])
			}
			if r1 != nil {
				w1 = getU24(r1[sx : sx+3])
			}
			if r2 != nil {
				w2 = getU24(r2[sx : sx+3])
			}
			putU64(rows[d:d+8],
				uint64(w0&0xFFFFFF)|uint64(w1&0xFFFFFF)<<24|uint64(w2&0xFFFF)<<48)
			rows[d+8] = uint8(w2 >> 16)
			d += kdim
			sx += g.Stride
		}
		for ox := xhi + 1; ox < ow; ox++ {
			im2colU8Edge3(rows, r0, r1, r2, g, pad, ox*kdim+p, ox*g.Stride-g.Pad)
		}
	}
}

// im2colU8Edge3 composes one border position's 9-tap block with per-tap
// bounds checks; nil receptive-field rows mean vertical padding. A plain
// function rather than a closure so the hot interior loop above keeps
// its locals in registers.
func im2colU8Edge3(rows, r0, r1, r2 []uint8, g ConvGeom, pad uint8, d, ix0 int) {
	for t := 0; t < 3; t++ {
		v0, v1, v2 := pad, pad, pad
		if ix := ix0 + t; ix >= 0 && ix < g.InW {
			if r0 != nil {
				v0 = r0[ix]
			}
			if r1 != nil {
				v1 = r1[ix]
			}
			if r2 != nil {
				v2 = r2[ix]
			}
		}
		rows[d+t] = v0
		rows[d+3+t] = v1
		rows[d+6+t] = v2
	}
}

// putU32/getU32/putU64/getU64 are the word-wide copy primitives of the
// interior store loops; encoding/binary's fixed-width forms compile to
// single unaligned load/store instructions on amd64 and arm64.
func getU32(b []uint8) uint32 { return binary.LittleEndian.Uint32(b) }
func getU24(b []uint8) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
}
func putU32(b []uint8, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU64(b []uint8) uint64    { return binary.LittleEndian.Uint64(b) }
func putU64(b []uint8, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func im2colU8Sample(dst, src []uint8, n int, g ConvGeom, pad uint8, i int) {
	oh, ow := g.OutHW()
	s := oh * ow
	ns := n * s
	inSz := g.InC * g.InH * g.InW
	img := src[i*inSz : (i+1)*inSz]
	row := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := dst[row*ns+i*s : row*ns+(i+1)*s]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					dseg := drow[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= g.InH {
						for ox := range dseg {
							dseg[ox] = pad
						}
						continue
					}
					srow := img[base+iy*g.InW : base+(iy+1)*g.InW]
					if g.Stride == 1 && kw >= g.Pad && g.InW-ow >= kw-g.Pad {
						// Interior fast path: the tap row is a straight copy.
						copy(dseg, srow[kw-g.Pad:])
						continue
					}
					for ox := range dseg {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							dseg[ox] = pad
						} else {
							dseg[ox] = srow[ix]
						}
					}
				}
				row++
			}
		}
	}
}
