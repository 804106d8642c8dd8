package tensor

import (
	"fmt"
	"slices"
)

// Implicit-im2col float convolution: the training spine's one conv
// lowering. Nothing ever holds the (C·KH·KW, N·OH·OW) patch matrix or its
// gradient; every product runs over bands of whole samples whose patches
// are gathered from the NCHW input straight into a per-worker buffer and
// consumed while cache resident.
//
//   - Forward: a band's patches are gathered directly into packed column
//     panels (the PackedF32 layout: panel p, tap q, lane j at
//     (p·kdim+q)·pw+j) and run through the 4×16/4×8 FMA micro-kernels
//     against the (outC, kdim) weight. A panel that lies inside one
//     sample's output plane is written straight into the NCHW output; a
//     panel straddling samples (or the band's zero-padded last panel) goes
//     through a one-panel tile. The bias is added to each sample's planes
//     right after its panels, while they are hot.
//   - dX: the band's dY is packed into panels, Wᵀ·dY lands in a per-worker
//     (kdim, band) column-gradient buffer, and that buffer is scattered
//     into the band's dX samples immediately.
//   - dW: the band's patches are rebuilt from the saved input, and the
//     band's partial patches·dYᵀ is written to its own slot. After all
//     bands, the slots are summed in band order into the gradient, so dW
//     depends on the batch geometry only, never on the worker count or
//     the schedule.
//
// Every output element of the forward and dX products is one FMA chain
// over its k taps in ascending order, starting from zero — exactly what
// the materialized path (patch matrix + packed GEMM + col2im) computes —
// so under the SIMD dispatch both are bit-identical to it. Under the
// portable kernels they agree to float32 rounding.

// convBandTarget is the output-position count a band aims for: bands
// take whole samples until they hold at least this many positions, so
// even 4×4 output maps fill several 16-wide panels per band.
const convBandTarget = 128

// ConvF32 is the implicit-im2col float convolution of one geometry. It
// owns the per-worker scratch lanes and the per-band weight-gradient
// slots, grown on first use and reused by every later call, so steady-state
// Forward/Backward calls allocate nothing. A ConvF32 must not run
// concurrent calls. Backward reads the input x that the matching Forward
// saw, so the caller must keep x unchanged in between (the nn arena rules
// guarantee that for layer inputs).
type ConvF32 struct {
	g         ConvGeom
	outC      int
	oh, ow, s int // output map and its position count OH·OW
	kdim      int // patch length InC·KH·KW
	bandN     int // samples per band
	pwo, npo  int // dYᵀ panel width and panel count (over outC)
	ph, pwd   int // zero-padded input plane: InH+2·Pad rows of InW+2·Pad
	stageLen  int // padded sample staging (0 when Pad is 0)
	workLen   int // lane floats before the staging area
	lanes     []float32
	laneLen   int
	parts     []float32
	partLen   int // one band's dW slot: kdim × npo·pwo
}

// NewConvF32 builds the float conv of geometry g with outC filters.
func NewConvF32(g ConvGeom, outC int) (*ConvF32, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if outC <= 0 {
		return nil, fmt.Errorf("%w: conv outC %d must be positive", ErrShape, outC)
	}
	oh, ow := g.OutHW()
	c := &ConvF32{
		g: g, outC: outC,
		oh: oh, ow: ow, s: oh * ow,
		kdim: g.InC * g.KH * g.KW,
		pwo:  f32PanelColsNarrow,
		ph:   g.InH + 2*g.Pad,
		pwd:  g.InW + 2*g.Pad,
	}
	if g.Pad > 0 {
		c.stageLen = g.InC * c.ph * c.pwd
	}
	c.bandN = (convBandTarget + c.s - 1) / c.s
	if outC > f32PanelColsNarrow {
		c.pwo = f32PanelCols
	}
	c.npo = (outC + c.pwo - 1) / c.pwo
	c.partLen = c.kdim * c.npo * c.pwo
	return c, nil
}

// bandSpan returns the sample range [i0, i1) of band b.
func (c *ConvF32) bandSpan(b, n int) (i0, i1 int) {
	i0 = b * c.bandN
	return i0, min(i0+c.bandN, n)
}

// panelWidth is the packed panel width for n columns: 16, or 8 when n
// is too narrow to fill four wide panels.
func panelWidth(cols int) int {
	if cols < f32NarrowPanelMaxN {
		return f32PanelColsNarrow
	}
	return f32PanelCols
}

// prepare sizes the worker lanes for an n-sample call and returns the
// band and lane counts. A lane holds the larger of the forward pass's
// packed band plus output tile and the backward pass's two phases (dW:
// plain patches plus packed dYᵀ; dX: packed dY plus column gradients),
// followed by the zero-padded staging copy of one sample.
func (c *ConvF32) prepare(n int) (bands, lanes int) {
	bands = (n + c.bandN - 1) / c.bandN
	lanes = min(maxWorkers, bands)
	cols := min(c.bandN, n) * c.s
	pad := (cols + f32PanelCols - 1) / f32PanelCols * f32PanelCols
	fwd := pad*c.kdim + c.outC*f32PanelCols
	dw := c.kdim*cols + c.npo*cols*c.pwo
	dx := pad*c.outC + c.kdim*pad
	c.workLen = max(fwd, dw, dx)
	c.laneLen = c.workLen + c.stageLen
	if need := lanes * c.laneLen; cap(c.lanes) < need {
		c.lanes = make([]float32, need)
	}
	return bands, lanes
}

func (c *ConvF32) lane(l int) []float32 {
	return c.lanes[l*c.laneLen : (l+1)*c.laneLen]
}

func (c *ConvF32) check(op string, x *Tensor, w []float32) error {
	g := c.g
	if x.Rank() != 4 || x.shape[0] <= 0 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		return fmt.Errorf("%w: conv %s input %v does not match geometry %+v", ErrShape, op, x.shape, g)
	}
	if len(w) != c.outC*c.kdim {
		return fmt.Errorf("%w: conv %s weight has %d elements, want %d", ErrShape, op, len(w), c.outC*c.kdim)
	}
	return nil
}

func (c *ConvF32) checkOut(op, what string, t *Tensor, n int) error {
	if t.Rank() != 4 || t.shape[0] != n || t.shape[1] != c.outC || t.shape[2] != c.oh || t.shape[3] != c.ow {
		return fmt.Errorf("%w: conv %s %s %v, want (%d,%d,%d,%d)", ErrShape, op, what, t.shape, n, c.outC, c.oh, c.ow)
	}
	return nil
}

// Forward computes out = conv(x, w) + bias for an NCHW batch x. w is the
// (outC, InC, KH, KW) weight in row-major order; bias is nil or has outC
// entries. out has shape (N, outC, OH, OW) and is fully overwritten; it
// must not alias x or w.
func (c *ConvF32) Forward(out, x *Tensor, w, bias []float32) error {
	if err := c.check("forward", x, w); err != nil {
		return err
	}
	n := x.shape[0]
	if err := c.checkOut("forward", "output", out, n); err != nil {
		return err
	}
	if bias != nil && len(bias) != c.outC {
		return fmt.Errorf("%w: conv forward bias has %d elements, want %d", ErrShape, len(bias), c.outC)
	}
	bands, lanes := c.prepare(n)
	if lanes == 1 { // no closure: a serial call allocates nothing
		for b := 0; b < bands; b++ {
			c.forwardBand(out.data, x.data, w, bias, b, n, c.lane(0))
		}
		return nil
	}
	ParallelForWorker(bands, func(b, l int) {
		c.forwardBand(out.data, x.data, w, bias, b, n, c.lane(l))
	})
	return nil
}

func (c *ConvF32) forwardBand(out, x, w, bias []float32, b, n int, lane []float32) {
	i0, i1 := c.bandSpan(b, n)
	s, kdim, outC := c.s, c.kdim, c.outC
	cols := (i1 - i0) * s
	pw := panelWidth(cols)
	panels := (cols + pw - 1) / pw
	pk := lane[:panels*kdim*pw]
	tile := lane[len(pk):][:outC*pw]
	c.gather(pk, x, i0, i1, pw, lane[c.workLen:])
	for p := 0; p < panels; p++ {
		panel := pk[p*kdim*pw : (p+1)*kdim*pw]
		col := p * pw
		if i, pos := i0+col/s, col%s; pos+pw <= s {
			// The panel lies inside one sample's planes: write NCHW directly.
			f32PanelRows(out[i*outC*s+pos:], w, panel, outC, kdim, kdim, 1, s, pw)
			continue
		}
		f32PanelRows(tile, w, panel, outC, kdim, kdim, 1, pw, pw)
		for j := 0; j < pw && col+j < cols; {
			cc := col + j
			i, pos := i0+cc/s, cc%s
			run := min(pw-j, s-pos, cols-cc)
			for oc := 0; oc < outC; oc++ {
				copy(out[(i*outC+oc)*s+pos:][:run], tile[oc*pw+j:][:run])
			}
			j += run
		}
	}
	if bias == nil {
		return
	}
	for i := i0; i < i1; i++ {
		for oc, bv := range bias {
			row := out[(i*outC+oc)*s : (i*outC+oc+1)*s]
			for j := range row {
				row[j] += bv
			}
		}
	}
}

// Backward computes the input gradient of a batch into dx (shape of the
// Forward input, fully overwritten) and accumulates the weight gradient
// into gw (outC·kdim entries) and, when gb is non-nil, the bias gradient
// into gb. x and w must be what the matching Forward saw; dy has the
// output's shape. gw and gb are summed in a fixed order, so they are
// bit-identical for any worker count.
func (c *ConvF32) Backward(dx, dy, x *Tensor, w, gw, gb []float32) error {
	if err := c.check("backward", x, w); err != nil {
		return err
	}
	n := x.shape[0]
	if err := c.checkOut("backward", "dout", dy, n); err != nil {
		return err
	}
	if !slices.Equal(dx.shape, x.shape) {
		return fmt.Errorf("%w: conv backward dx %v, want %v", ErrShape, dx.shape, x.shape)
	}
	if len(gw) != len(w) {
		return fmt.Errorf("%w: conv backward weight grad has %d elements, want %d", ErrShape, len(gw), len(w))
	}
	if gb != nil && len(gb) != c.outC {
		return fmt.Errorf("%w: conv backward bias grad has %d elements, want %d", ErrShape, len(gb), c.outC)
	}
	bands, lanes := c.prepare(n)
	if need := bands * c.partLen; cap(c.parts) < need {
		c.parts = make([]float32, need)
	}
	if lanes == 1 { // no closure: a serial call allocates nothing
		for b := 0; b < bands; b++ {
			c.backwardBand(dx.data, dy.data, x.data, w, b, n, c.lane(0))
		}
	} else {
		ParallelForWorker(bands, func(b, l int) {
			c.backwardBand(dx.data, dy.data, x.data, w, b, n, c.lane(l))
		})
	}
	// Band-order reduction of the dW slots (slot layout: kdim × npo·pwo,
	// filters along the row).
	ldp := c.npo * c.pwo
	parts := c.parts
	for oc := 0; oc < c.outC; oc++ {
		g := gw[oc*c.kdim : (oc+1)*c.kdim]
		for q := range g {
			sum := parts[q*ldp+oc]
			for b := 1; b < bands; b++ {
				sum += parts[b*c.partLen+q*ldp+oc]
			}
			g[q] += sum
		}
	}
	if gb != nil {
		d := dy.data
		for oc := range gb {
			var sum float32
			for i := 0; i < n; i++ {
				for _, v := range d[(i*c.outC+oc)*c.s : (i*c.outC+oc+1)*c.s] {
					sum += v
				}
			}
			gb[oc] += sum
		}
	}
	return nil
}

func (c *ConvF32) backwardBand(dx, dy, x, w []float32, b, n int, lane []float32) {
	i0, i1 := c.bandSpan(b, n)
	s, kdim, outC := c.s, c.kdim, c.outC
	cols := (i1 - i0) * s

	// dW slot = patches (kdim, cols) · dYᵀ, the patches rebuilt from x as
	// one plain row-major matrix (a single panel as wide as the band).
	patches := lane[:kdim*cols]
	c.gather(patches, x, i0, i1, cols, lane[c.workLen:])
	pwo, ldp := c.pwo, c.npo*c.pwo
	dyt := lane[len(patches):][:c.npo*cols*pwo]
	for po := 0; po < c.npo; po++ {
		pp := dyt[po*cols*pwo : (po+1)*cols*pwo]
		for j := 0; j < pwo; j++ {
			oc := po*pwo + j
			for i := i0; i < i1; i++ {
				d := pp[(i-i0)*s*pwo+j:]
				if oc >= outC {
					for pos := 0; pos < s; pos++ {
						d[pos*pwo] = 0
					}
					continue
				}
				for pos, v := range dy[(i*outC+oc)*s : (i*outC+oc+1)*s] {
					d[pos*pwo] = v
				}
			}
		}
	}
	part := c.parts[b*c.partLen : (b+1)*c.partLen]
	for po := 0; po < c.npo; po++ {
		f32PanelRows(part[po*pwo:], patches, dyt[po*cols*pwo:(po+1)*cols*pwo], kdim, cols, cols, 1, ldp, pwo)
	}

	// dX: column gradients Wᵀ·dY (kdim, panels·pw) for the band, then
	// scattered into each sample's image.
	pw := panelWidth(cols)
	panels := (cols + pw - 1) / pw
	ldc := panels * pw
	dyp := lane[:panels*outC*pw]
	dcols := lane[len(dyp):][:kdim*ldc]
	for i := i0; i < i1; i++ {
		for oc := 0; oc < outC; oc++ {
			panelPut(dyp, outC, pw, oc, (i-i0)*s, dy[(i*outC+oc)*s:(i*outC+oc+1)*s])
		}
	}
	zeroPanelTail(dyp, outC, pw, cols)
	for p := 0; p < panels; p++ {
		f32PanelRows(dcols[p*pw:], w, dyp[p*outC*pw:(p+1)*outC*pw], kdim, outC, 1, kdim, ldc, pw)
	}
	for i := i0; i < i1; i++ {
		c.col2im(dx, dcols[(i-i0)*s:], ldc, i, lane[c.workLen:])
	}
}

// col2im scatters one sample's column gradients (kdim rows at stride ld)
// into dx sample i. Taps accumulate in ascending (c, kh, kw) order — the
// materialized col2im's order — into a zeroed padded plane (the sample
// itself when Pad is 0), so every dX element sums its contributions
// identically; taps landing in the padding are dropped with it.
func (c *ConvF32) col2im(dx, dcols []float32, ld, i int, stage []float32) {
	g := c.g
	img := dx[i*g.InC*g.InH*g.InW : (i+1)*g.InC*g.InH*g.InW]
	acc := img
	if c.stageLen > 0 {
		acc = stage[:c.stageLen]
	}
	clear(acc)
	ow := c.ow
	q := 0
	for ch := 0; ch < g.InC; ch++ {
		for kh := 0; kh < g.KH; kh++ {
			if g.Stride == 1 && g.KW == 3 {
				// The three kw taps of one output row land on one padded
				// row at offsets 0, 1, 2: fuse them into one pass that
				// still adds each element's taps in kw order.
				r0, r1, r2 := dcols[q*ld:], dcols[(q+1)*ld:], dcols[(q+2)*ld:]
				q += 3
				for oy := 0; oy < c.oh; oy++ {
					addTaps3(acc[(ch*c.ph+oy+kh)*c.pwd:], r0[oy*ow:(oy+1)*ow], r1[oy*ow:(oy+1)*ow], r2[oy*ow:(oy+1)*ow])
				}
				continue
			}
			for kw := 0; kw < g.KW; kw++ {
				srow := dcols[q*ld : q*ld+c.s]
				q++
				for oy := 0; oy < c.oh; oy++ {
					sseg := srow[oy*ow : (oy+1)*ow]
					d := acc[(ch*c.ph+oy*g.Stride+kh)*c.pwd+kw:]
					switch {
					case g.Stride != 1:
						for t, v := range sseg {
							d[t*g.Stride] += v
						}
					case ow >= f32PanelCols:
						axpy1(d[:ow], sseg, 1)
					default:
						d = d[:ow]
						for t, v := range sseg {
							d[t] += v
						}
					}
				}
			}
		}
	}
	if c.stageLen == 0 {
		return
	}
	for ch := 0; ch < g.InC; ch++ {
		for iy := 0; iy < g.InH; iy++ {
			src := acc[(ch*c.ph+iy+g.Pad)*c.pwd+g.Pad:]
			copy(img[(ch*g.InH+iy)*g.InW:(ch*g.InH+iy+1)*g.InW], src)
		}
	}
}

// addTaps3 adds three taps' output-row gradients to a padded input row:
// row[x] += s0[x] + s1[x-1] + s2[x-2], each term present when its index
// lies in [0, len(s0)), summed left to right — the order three separate
// per-tap passes would add them in.
func addTaps3(row, s0, s1, s2 []float32) {
	ow := len(s0)
	row, s1, s2 = row[:ow+2], s1[:ow], s2[:ow]
	if ow == 1 {
		row[0] += s0[0]
		row[1] += s1[0]
		row[2] += s2[0]
		return
	}
	row[0] += s0[0]
	row[1] = row[1] + s0[1] + s1[0]
	for x := 2; x < ow; x++ {
		row[x] = row[x] + s0[x] + s1[x-1] + s2[x-2]
	}
	row[ow] = row[ow] + s1[ow-1] + s2[ow-2]
	row[ow+1] += s2[ow-1]
}

// gather writes the patches of samples [i0, i1) of x into dst as a
// (kdim, cols) matrix packed into pw-wide column panels: tap q of band
// column j lands at ((j/pw)·kdim + q)·pw + j%pw, out-of-image taps are
// zero, and columns past the band up to the last panel's edge are zeroed.
// pw = cols gives a plain row-major matrix. Each sample is first staged
// into a zero-padded plane, so every tap reads in bounds; each output
// row is split at panel edges once, and every tap of a piece is then a
// run at a fixed stride pw from the piece's base.
func (c *ConvF32) gather(dst, x []float32, i0, i1, pw int, stage []float32) {
	g := c.g
	kdim, s, ow := c.kdim, c.s, c.ow
	inSz := g.InC * g.InH * g.InW
	for i := i0; i < i1; i++ {
		img := c.stagePadded(x[i*inSz:(i+1)*inSz], stage)
		for oy := 0; oy < c.oh; oy++ {
			col := (i-i0)*s + oy*ow
			for ox := 0; ox < ow; {
				j := col % pw
				r := min(pw-j, ow-ox)
				c.gatherPiece(dst[col/pw*kdim*pw+j:], img, pw, oy, ox, r)
				ox += r
				col += r
			}
		}
	}
	zeroPanelTail(dst, kdim, pw, (i1-i0)*s)
}

// stagePadded returns one sample's planes with Pad zeros on every side:
// img itself when Pad is 0, else a copy in stage.
func (c *ConvF32) stagePadded(img, stage []float32) []float32 {
	g := c.g
	if c.stageLen == 0 {
		return img
	}
	st := stage[:c.stageLen]
	clear(st)
	for ch := 0; ch < g.InC; ch++ {
		for iy := 0; iy < g.InH; iy++ {
			copy(st[(ch*c.ph+iy+g.Pad)*c.pwd+g.Pad:], img[(ch*g.InH+iy)*g.InW:(ch*g.InH+iy+1)*g.InW])
		}
	}
	return st
}

// gatherPiece writes output columns [ox0, ox0+r) of output row oy of one
// padded sample for every tap q, at d[q·pw:][:r].
func (c *ConvF32) gatherPiece(d, img []float32, pw, oy, ox0, r int) {
	g := c.g
	q := 0
	for ch := 0; ch < g.InC; ch++ {
		for kh := 0; kh < g.KH; kh++ {
			src := img[(ch*c.ph+oy*g.Stride+kh)*c.pwd+ox0*g.Stride:]
			for kw := 0; kw < g.KW; kw++ {
				seg := d[q*pw : q*pw+r]
				q++
				if g.Stride == 1 {
					// Fixed-size moves for the common output-row widths
					// skip memmove's call overhead on these short runs
					// (loading into a local first lets the compiler
					// inline the move instead of calling memmove).
					switch r {
					case 16:
						v := *(*[16]float32)(src[kw:])
						*(*[16]float32)(seg) = v
					case 8:
						v := *(*[8]float32)(src[kw:])
						*(*[8]float32)(seg) = v
					case 4:
						v := *(*[4]float32)(src[kw:])
						*(*[4]float32)(seg) = v
					default:
						copy(seg, src[kw:])
					}
					continue
				}
				sp := src[kw:]
				for t := range seg {
					seg[t] = sp[t*g.Stride]
				}
			}
		}
	}
}

// panelPut copies src into row q of a pw-wide panel layout with k rows,
// starting at column col, splitting the run at panel edges.
func panelPut(dst []float32, k, pw, q, col int, src []float32) {
	for len(src) > 0 {
		j := col % pw
		r := min(pw-j, len(src))
		copy(dst[(col/pw*k+q)*pw+j:][:r], src[:r])
		src = src[r:]
		col += r
	}
}

// zeroPanelTail zeroes the columns of a k-row pw-wide panel layout that
// lie past the first cols, up to the last panel's edge.
func zeroPanelTail(dst []float32, k, pw, cols int) {
	tail := (cols+pw-1)/pw*pw - cols
	if tail == 0 {
		return
	}
	d := dst[(cols/pw)*k*pw+cols%pw:]
	for q := 0; q < k; q++ {
		clear(d[q*pw : q*pw+tail])
	}
}
