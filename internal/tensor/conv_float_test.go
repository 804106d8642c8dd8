package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convSweep is the geometry sweep of the implicit-conv tests: stride 1/2,
// pad 0/1/2, kernel 1/3/5 over a non-square map, plus maps whose output
// plane is narrower than one panel.
func convSweep() []ConvGeom {
	var gs []ConvGeom
	for _, st := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			for _, k := range []int{1, 3, 5} {
				g := ConvGeom{InC: 3, InH: 7, InW: 9, KH: k, KW: k, Stride: st, Pad: pad}
				if g.Validate() == nil {
					gs = append(gs, g)
				}
			}
		}
	}
	return append(gs,
		ConvGeom{InC: 2, InH: 3, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 3×2 output
		ConvGeom{InC: 4, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}, // 2×2 output
		ConvGeom{InC: 5, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 0}, // 1×1 output
		ConvGeom{InC: 2, InH: 4, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 0}, // 2×1 output
	)
}

// padCols copies the (rows, cols) matrix m into a (rows, pc) matrix with
// zero columns on the right.
func padCols(m []float32, rows, cols, pc int) []float32 {
	out := make([]float32, rows*pc)
	for r := 0; r < rows; r++ {
		copy(out[r*pc:r*pc+cols], m[r*cols:(r+1)*cols])
	}
	return out
}

// materializedConv is the oracle: the whole-batch patch matrix through
// the packed GEMM (columns zero-padded to whole panels, so every output
// runs the full-width FMA kernels), the bias added after the product.
func materializedConv(t *testing.T, x *Tensor, w, bias []float32, g ConvGeom, outC int) *Tensor {
	t.Helper()
	n := x.Dim(0)
	oh, ow := g.OutHW()
	s, kdim := oh*ow, g.InC*g.KH*g.KW
	cols, err := Im2ColBatch(x, g)
	if err != nil {
		t.Fatal(err)
	}
	pc := (n*s + f32PanelCols - 1) / f32PanelCols * f32PanelCols
	pk, err := PackF32PanelsB(padCols(cols.Data(), kdim, n*s, pc), kdim, pc)
	if err != nil {
		t.Fatal(err)
	}
	prod := make([]float32, outC*pc)
	if err := MatMulF32PackedInto(prod, w, pk, outC, kdim); err != nil {
		t.Fatal(err)
	}
	out := New(n, outC, oh, ow)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for p := 0; p < s; p++ {
				v := prod[oc*pc+i*s+p]
				if bias != nil {
					v += bias[oc]
				}
				out.data[(i*outC+oc)*s+p] = v
			}
		}
	}
	return out
}

// materializedDX is the dX oracle: Wᵀ·dY through the packed
// transposed-A GEMM into a full column-gradient matrix, then col2im.
func materializedDX(t *testing.T, dy *Tensor, w []float32, g ConvGeom, outC int) *Tensor {
	t.Helper()
	n := dy.Dim(0)
	oh, ow := g.OutHW()
	s, kdim := oh*ow, g.InC*g.KH*g.KW
	pc := (n*s + f32PanelCols - 1) / f32PanelCols * f32PanelCols
	d2 := make([]float32, outC*pc)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			copy(d2[oc*pc+i*s:oc*pc+(i+1)*s], dy.data[(i*outC+oc)*s:(i*outC+oc+1)*s])
		}
	}
	pk, err := PackF32PanelsB(d2, outC, pc)
	if err != nil {
		t.Fatal(err)
	}
	dcolsP := make([]float32, kdim*pc)
	if err := MatMulF32PackedTransAInto(dcolsP, w, pk, kdim, kdim); err != nil {
		t.Fatal(err)
	}
	dcols := New(kdim, n*s)
	for r := 0; r < kdim; r++ {
		copy(dcols.data[r*n*s:(r+1)*n*s], dcolsP[r*pc:])
	}
	dx := New(n, g.InC, g.InH, g.InW)
	if err := Col2ImBatchInto(dx, dcols, g); err != nil {
		t.Fatal(err)
	}
	return dx
}

// float64DW returns dW = Σ dY·patches in float64 and, per element, the
// sum of the absolute products (the float32 error scale).
func float64DW(t *testing.T, x, dy *Tensor, g ConvGeom, outC int) (dw, mag []float64) {
	t.Helper()
	n := x.Dim(0)
	oh, ow := g.OutHW()
	s, kdim := oh*ow, g.InC*g.KH*g.KW
	cols, err := Im2ColBatch(x, g)
	if err != nil {
		t.Fatal(err)
	}
	dw = make([]float64, outC*kdim)
	mag = make([]float64, outC*kdim)
	for oc := 0; oc < outC; oc++ {
		for q := 0; q < kdim; q++ {
			for i := 0; i < n; i++ {
				for p := 0; p < s; p++ {
					v := float64(dy.data[(i*outC+oc)*s+p]) * float64(cols.data[q*n*s+i*s+p])
					dw[oc*kdim+q] += v
					mag[oc*kdim+q] += math.Abs(v)
				}
			}
		}
	}
	return dw, mag
}

// sameOrClose compares got against want bit for bit under the SIMD
// dispatch (same FMA chains) and to float32 rounding otherwise.
func sameOrClose(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		if SIMDActive() {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s[%d] = %v, oracle %v: not bit-identical", what, j, got[j], want[j])
			}
			continue
		}
		if d := math.Abs(float64(got[j] - want[j])); d > 1e-5*(1+math.Abs(float64(want[j]))) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, j, got[j], want[j])
		}
	}
}

// TestConvF32MatchesMaterialized pins the implicit conv to the
// materialized oracle over the geometry and batch sweep: forward output
// and dX bit-identical under SIMD, dW within float32 accumulation error
// of the exact sum, bias gradient equal to the straight sum.
func TestConvF32MatchesMaterialized(t *testing.T) {
	rng := NewRNG(101)
	outCs := []int{4, 5, 16, 3}
	for gi, g := range convSweep() {
		outC := outCs[gi%len(outCs)]
		kdim := g.InC * g.KH * g.KW
		for _, n := range []int{1, 3, 64, 65} {
			t.Run(fmt.Sprintf("%+v/outC=%d/n=%d", g, outC, n), func(t *testing.T) {
				oh, ow := g.OutHW()
				x := New(n, g.InC, g.InH, g.InW)
				x.FillNormal(rng, 0, 1)
				w := New(outC, g.InC, g.KH, g.KW)
				w.FillNormal(rng, 0, 0.5)
				bias := New(outC)
				bias.FillNormal(rng, 0, 0.5)
				dy := New(n, outC, oh, ow)
				dy.FillNormal(rng, 0, 1)

				c, err := NewConvF32(g, outC)
				if err != nil {
					t.Fatal(err)
				}
				out := New(n, outC, oh, ow)
				out.Fill(float32(math.NaN())) // stale scratch must be overwritten
				if err := c.Forward(out, x, w.Data(), bias.Data()); err != nil {
					t.Fatal(err)
				}
				sameOrClose(t, "out", out.Data(), materializedConv(t, x, w.Data(), bias.Data(), g, outC).Data())

				dx := New(n, g.InC, g.InH, g.InW)
				dx.Fill(float32(math.NaN()))
				gw := make([]float32, outC*kdim)
				gb := make([]float32, outC)
				if err := c.Backward(dx, dy, x, w.Data(), gw, gb); err != nil {
					t.Fatal(err)
				}
				sameOrClose(t, "dx", dx.Data(), materializedDX(t, dy, w.Data(), g, outC).Data())

				want, mag := float64DW(t, x, dy, g, outC)
				for j := range gw {
					if d := math.Abs(float64(gw[j]) - want[j]); d > 1e-5*mag[j]+1e-6 {
						t.Fatalf("dw[%d] = %v, want %v (|err| %g, scale %g)", j, gw[j], want[j], d, mag[j])
					}
				}
				s := oh * ow
				for oc := 0; oc < outC; oc++ {
					var sum float32
					for i := 0; i < n; i++ {
						for _, v := range dy.data[(i*outC+oc)*s : (i*outC+oc+1)*s] {
							sum += v
						}
					}
					if gb[oc] != sum {
						t.Fatalf("db[%d] = %v, want %v", oc, gb[oc], sum)
					}
				}
			})
		}
	}
}

// TestConvF32WorkerInvariant runs forward+backward under 1, 2 and 4
// workers and twice per setting: every output, dX and the accumulated
// dW/db must be bit-identical across all runs.
func TestConvF32WorkerInvariant(t *testing.T) {
	defer SetMaxWorkers(MaxWorkers())
	rng := NewRNG(7)
	for _, g := range []ConvGeom{
		{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
	} {
		const n, outC = 33, 12
		oh, ow := g.OutHW()
		x := New(n, g.InC, g.InH, g.InW)
		x.FillNormal(rng, 0, 1)
		w := New(outC, g.InC, g.KH, g.KW)
		w.FillNormal(rng, 0, 0.5)
		dy := New(n, outC, oh, ow)
		dy.FillNormal(rng, 0, 1)
		var ref []float32
		for _, workers := range []int{1, 2, 4, 1, 2, 4} {
			SetMaxWorkers(workers)
			c, err := NewConvF32(g, outC)
			if err != nil {
				t.Fatal(err)
			}
			out := New(n, outC, oh, ow)
			dx := New(n, g.InC, g.InH, g.InW)
			gw := make([]float32, w.Len())
			gb := make([]float32, outC)
			for step := 0; step < 2; step++ { // gradients accumulate
				if err := c.Forward(out, x, w.Data(), nil); err != nil {
					t.Fatal(err)
				}
				if err := c.Backward(dx, dy, x, w.Data(), gw, gb); err != nil {
					t.Fatal(err)
				}
			}
			got := append(append(append(append([]float32{}, out.Data()...), dx.Data()...), gw...), gb...)
			if ref == nil {
				ref = got
				continue
			}
			for j := range ref {
				if math.Float32bits(got[j]) != math.Float32bits(ref[j]) {
					t.Fatalf("%+v workers=%d: element %d = %v, first run %v", g, workers, j, got[j], ref[j])
				}
			}
		}
	}
}

// TestConvF32SteadyStateAllocs pins the zero-allocation contract of a
// warm conv: serial Forward+Backward allocates nothing.
func TestConvF32SteadyStateAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	g := ConvGeom{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c, err := NewConvF32(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := New(8, 4, 16, 16)
	x.FillNormal(NewRNG(3), 0, 1)
	w := make([]float32, 8*4*9)
	out, dy := New(8, 8, 16, 16), New(8, 8, 16, 16)
	dx := New(8, 4, 16, 16)
	gw, gb := make([]float32, len(w)), make([]float32, 8)
	step := func() {
		if err := c.Forward(out, x, w, gb); err != nil {
			t.Fatal(err)
		}
		if err := c.Backward(dx, dy, x, w, gw, gb); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Fatalf("steady-state conv forward+backward allocates %.0f objects, want 0", a)
	}
}

// TestConvF32ShapeErrors checks that mismatched operands are rejected
// with ErrShape instead of indexing out of range.
func TestConvF32ShapeErrors(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c, err := NewConvF32(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, w := New(2, 2, 5, 5), make([]float32, 3*2*9)
	cases := map[string]error{
		"input":   c.Forward(New(2, 3, 5, 5), New(2, 1, 5, 5), w, nil),
		"weight":  c.Forward(New(2, 3, 5, 5), x, w[:5], nil),
		"output":  c.Forward(New(2, 3, 4, 5), x, w, nil),
		"bias":    c.Forward(New(2, 3, 5, 5), x, w, make([]float32, 2)),
		"dout":    c.Backward(New(2, 2, 5, 5), New(1, 3, 5, 5), x, w, make([]float32, len(w)), nil),
		"dx":      c.Backward(New(2, 2, 5, 4), New(2, 3, 5, 5), x, w, make([]float32, len(w)), nil),
		"grad":    c.Backward(New(2, 2, 5, 5), New(2, 3, 5, 5), x, w, make([]float32, 3), nil),
		"biasgrd": c.Backward(New(2, 2, 5, 5), New(2, 3, 5, 5), x, w, make([]float32, len(w)), make([]float32, 1)),
	}
	for what, err := range cases {
		if err == nil {
			t.Errorf("%s mismatch: no error", what)
		}
	}
	if _, err := NewConvF32(g, 0); err == nil {
		t.Error("outC 0: no error")
	}
}
