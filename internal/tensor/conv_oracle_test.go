package tensor

import "fmt"

// The materialized float conv lowering: whole-batch patch matrices
// (im2col), their adjoint scatter (col2im), the transposed-A packed GEMM
// that produced the column gradients, and a naive direct convolution.
// Production convolves through ConvF32 (conv_float.go); these survive
// only as test oracles for it and for the int8 packers.

// Im2Col unrolls one image (C, H, W) into a matrix of shape
// (C*KH*KW, OH*OW) so convolution becomes a GEMM with the (outC, C*KH*KW)
// weight matrix. Out-of-bounds taps contribute zeros (zero padding).
func Im2Col(img *Tensor, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if img.Rank() != 3 || img.shape[0] != g.InC || img.shape[1] != g.InH || img.shape[2] != g.InW {
		return nil, fmt.Errorf("%w: im2col image %v does not match geometry %+v", ErrShape, img.shape, g)
	}
	oh, ow := g.OutHW()
	cols := New(g.InC*g.KH*g.KW, oh*ow)
	src := img.data
	dst := cols.data
	ncols := oh * ow
	row := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := dst[row*ncols : (row+1)*ncols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue // stays zero
					}
					srow := src[base+iy*g.InW:]
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						drow[oy*ow+ox] = srow[ix]
					}
				}
				row++
			}
		}
	}
	return cols, nil
}

// Im2ColBatch unrolls a whole NCHW batch into one column matrix of shape
// (C*KH*KW, N·OH·OW), where column i·OH·OW + s holds output position s of
// sample i. Packing the batch once lets convolution run as a single large
// GEMM with the (outC, C*KH*KW) weight matrix instead of N small ones.
func Im2ColBatch(x *Tensor, g ConvGeom) (*Tensor, error) {
	if err := validateBatchImage(x, g); err != nil {
		return nil, err
	}
	oh, ow := g.OutHW()
	cols := New(g.InC*g.KH*g.KW, x.shape[0]*oh*ow)
	if err := Im2ColBatchInto(cols, x, g); err != nil {
		return nil, err
	}
	return cols, nil
}

// Im2ColBatchInto is Im2ColBatch into a caller-owned destination of shape
// (C*KH*KW, N·OH·OW), e.g. a scratch arena reused across training steps.
// Every element of dst is written (zeros included), so stale contents are
// harmless.
func Im2ColBatchInto(dst, x *Tensor, g ConvGeom) error {
	if err := validateBatchImage(x, g); err != nil {
		return err
	}
	n := x.shape[0]
	oh, ow := g.OutHW()
	s := oh * ow
	ns := n * s
	if dst.Rank() != 2 || dst.shape[0] != g.InC*g.KH*g.KW || dst.shape[1] != ns {
		return fmt.Errorf("%w: im2col batch dst %v does not match geometry %+v for batch %d", ErrShape, dst.shape, g, n)
	}
	src := x.data
	out := dst.data
	inSz := g.InC * g.InH * g.InW
	ParallelFor(n, func(i int) {
		img := src[i*inSz : (i+1)*inSz]
		row := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					drow := out[row*ns+i*s : row*ns+(i+1)*s]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						dseg := drow[oy*ow : (oy+1)*ow]
						if iy < 0 || iy >= g.InH {
							for ox := range dseg {
								dseg[ox] = 0
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
								dseg[ox] = 0
							} else {
								dseg[ox] = srow[ix]
							}
						}
					}
					row++
				}
			}
		}
	})
	return nil
}

// Col2ImBatchInto is the adjoint of Im2ColBatchInto: it scatters a
// (C*KH*KW, N·OH·OW) column-gradient matrix back into an NCHW batch image,
// accumulating overlapping taps. dst is fully overwritten (it is zeroed
// before accumulation), so it can be a reused scratch arena.
func Col2ImBatchInto(dst, cols *Tensor, g ConvGeom) error {
	if err := validateBatchImage(dst, g); err != nil {
		return err
	}
	n := dst.shape[0]
	oh, ow := g.OutHW()
	s := oh * ow
	ns := n * s
	if cols.Rank() != 2 || cols.shape[0] != g.InC*g.KH*g.KW || cols.shape[1] != ns {
		return fmt.Errorf("%w: col2im batch cols %v does not match geometry %+v for batch %d", ErrShape, cols.shape, g, n)
	}
	src := cols.data
	out := dst.data
	inSz := g.InC * g.InH * g.InW
	ParallelFor(n, func(i int) {
		img := out[i*inSz : (i+1)*inSz]
		for j := range img {
			img[j] = 0
		}
		row := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					srow := src[row*ns+i*s : row*ns+(i+1)*s]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						sseg := srow[oy*ow : (oy+1)*ow]
						drow := img[base+iy*g.InW : base+(iy+1)*g.InW]
						if g.Stride == 1 && kw >= g.Pad && g.InW-ow >= kw-g.Pad {
							axpy1(drow[kw-g.Pad:][:ow], sseg, 1)
							continue
						}
						for ox := range sseg {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							drow[ix] += sseg[ox]
						}
					}
					row++
				}
			}
		}
	})
	return nil
}

func validateBatchImage(x *Tensor, g ConvGeom) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if x.Rank() != 4 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		return fmt.Errorf("%w: batch image %v does not match geometry %+v", ErrShape, x.shape, g)
	}
	return nil
}

// Col2Im is the adjoint of Im2Col: it scatters a (C*KH*KW, OH*OW) column
// matrix back into an image (C, H, W), accumulating overlapping taps. It is
// used to back-propagate through the im2col transform.
func Col2Im(cols *Tensor, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	oh, ow := g.OutHW()
	if cols.Rank() != 2 || cols.shape[0] != g.InC*g.KH*g.KW || cols.shape[1] != oh*ow {
		return nil, fmt.Errorf("%w: col2im matrix %v does not match geometry %+v", ErrShape, cols.shape, g)
	}
	img := New(g.InC, g.InH, g.InW)
	src := cols.data
	dst := img.data
	ncols := oh * ow
	row := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				srow := src[row*ncols : (row+1)*ncols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[base+iy*g.InW+ix] += srow[oy*ow+ox]
					}
				}
				row++
			}
		}
	}
	return img, nil
}

// ConvDirect computes a 2-D convolution of a single image the naive way.
// It exists purely as a reference implementation for testing the
// im2col+GEMM path. weight has shape (outC, inC, KH, KW).
func ConvDirect(img, weight *Tensor, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	outC := weight.shape[0]
	oh, ow := g.OutHW()
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							s += img.At(c, iy, ix) * weight.At(oc, c, kh, kw)
						}
					}
				}
				out.Set(s, oc, oy, ox)
			}
		}
	}
	return out, nil
}

// MatMulF32PackedTransAInto computes dst = aᵀ·b where a is a float32
// (k, m) matrix with row stride lda ≥ m and b is a packed (k, n)
// matrix — the weight-gradient orientation, consumed without
// materializing the transpose. dst is row-major (m, n), fully
// overwritten.
func MatMulF32PackedTransAInto(dst, a []float32, b *PackedF32, m, lda int) error {
	if m <= 0 {
		return fmt.Errorf("%w: matmulF32PackedTA m %d must be positive", ErrShape, m)
	}
	if lda < m {
		return fmt.Errorf("%w: matmulF32PackedTA row stride %d < m %d", ErrShape, lda, m)
	}
	if need := (b.k-1)*lda + m; len(a) < need {
		return fmt.Errorf("%w: matmulF32PackedTA operand a has %d elements, want >= %d", ErrShape, len(a), need)
	}
	if len(dst) < m*b.n {
		return fmt.Errorf("%w: matmulF32PackedTA destination has %d elements, want >= %d", ErrShape, len(dst), m*b.n)
	}
	matMulF32PackedDriver(dst, a, b, m, 1, lda)
	return nil
}
