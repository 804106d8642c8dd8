package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveConvAccRef computes the position-major conv accumulator
// ((N·OH·OW, outC) int32) by direct tap enumeration: the ground truth
// the implicit conv must match bit for bit.
// Out-of-bounds taps read the pad value (the activation zero point).
func naiveConvAccRef(src []uint8, n int, g ConvGeom, pad uint8, wt []int8, outC int) []int32 {
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	inSz := g.InC * g.InH * g.InW
	out := make([]int32, n*oh*ow*outC)
	for i := 0; i < n; i++ {
		img := src[i*inSz : (i+1)*inSz]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := out[((i*oh+oy)*ow+ox)*outC:][:outC]
				for oc := 0; oc < outC; oc++ {
					var s int32
					w := wt[oc*kdim:]
					p := 0
					for c := 0; c < g.InC; c++ {
						for kh := 0; kh < g.KH; kh++ {
							iy := oy*g.Stride + kh - g.Pad
							for kw := 0; kw < g.KW; kw++ {
								ix := ox*g.Stride + kw - g.Pad
								a := pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									a = img[(c*g.InH+iy)*g.InW+ix]
								}
								s += int32(a) * int32(w[p])
								p++
							}
						}
					}
					row[oc] = s
				}
			}
		}
	}
	return out
}

// implicitWork allocates the gather lanes ConvU8I8ImplicitInto needs at
// the current worker bound, poisoned so stale bytes cannot pass as
// correct gathers.
func implicitWork(p *ConvPlanU8, tasks int) []uint8 {
	lanes := MaxWorkers()
	if lanes > tasks {
		lanes = tasks
	}
	w := make([]uint8, lanes*p.BandLen())
	for i := range w {
		w[i] = 0xA5
	}
	return w
}

// TestConvImplicitMatchesNaive sweeps the kernel-size × stride × pad ×
// batch grid of the serving zoo (plus stride 3) and checks, per
// dispatch, that ConvU8I8ImplicitInto and the naive tap enumeration
// produce the same accumulator bit for bit.
func TestConvImplicitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eachDispatch(t, func(t *testing.T) {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, 2} {
					for _, n := range []int{1, 2, 5} {
						g := ConvGeom{InC: 3, InH: 9, InW: 11, KH: k, KW: k, Stride: stride, Pad: pad}
						if g.Validate() != nil {
							continue
						}
						name := fmt.Sprintf("k%d_s%d_p%d_n%d", k, stride, pad, n)
						t.Run(name, func(t *testing.T) {
							checkConvImplicit(t, rng, g, n, 6)
						})
					}
				}
			}
		}
	})
}

// TestConvImplicitBandBoundaries exercises geometries whose output-row
// count collides with the banding in awkward ways (single row, exact
// band multiple, one spare row), a wide-image case where the gather
// crosses the word-copy tail, and the interior-range corner cases of
// im2colXRange.
func TestConvImplicitBandBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := []ConvGeom{
		{InC: 1, InH: 1, InW: 40, KH: 1, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 40, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 3, InH: 7, InW: 7, KH: 7, KW: 7, Stride: 1, Pad: 0},
		{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		// Kernel wider than InW+Pad: the interior column range is empty
		// and every position is an edge (regression: the hoisted-range
		// packer once sliced at a negative offset here).
		{InC: 1, InH: 2, InW: 2, KH: 7, KW: 7, Stride: 1, Pad: 3},
		{InC: 2, InH: 3, InW: 3, KH: 4, KW: 4, Stride: 2, Pad: 1},
		// Negative interior numerator with Pad 0 / small Pad: Go's
		// toward-zero division would round (InW−KW+Pad)/Stride up to 0
		// and let the interior loop read past the source row (regression).
		{InC: 1, InH: 2, InW: 2, KH: 1, KW: 3, Stride: 2, Pad: 0},
		{InC: 1, InH: 4, InW: 3, KH: 2, KW: 6, Stride: 1, Pad: 2},
		// Minimal 3×3/stride-1/pad-1 width: an empty interior
		// (xlo=1, xhi=ow−2=0), the two border columns are the whole row.
		{InC: 2, InH: 3, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, g := range geoms {
			g := g
			t.Run(fmt.Sprintf("c%d_%dx%d_k%dx%d_s%d", g.InC, g.InH, g.InW, g.KH, g.KW, g.Stride), func(t *testing.T) {
				checkConvImplicit(t, rng, g, 3, 9)
			})
		}
	})
}

// TestConvImplicitFuzz drives random geometries through the naive
// comparison, random zero points included.
func TestConvImplicitFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eachDispatch(t, func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			g := ConvGeom{
				InC:    1 + rng.Intn(5),
				InH:    1 + rng.Intn(14),
				InW:    1 + rng.Intn(14),
				KH:     1 + rng.Intn(5),
				KW:     1 + rng.Intn(5),
				Stride: 1 + rng.Intn(3),
				Pad:    rng.Intn(3),
			}
			if g.Validate() != nil {
				continue
			}
			checkConvImplicit(t, rng, g, 1+rng.Intn(4), 1+rng.Intn(16))
		}
	})
}

// checkConvImplicit runs one geometry through the naive reference and
// ConvU8I8ImplicitInto and requires bit-identical accumulators.
func checkConvImplicit(t *testing.T, rng *rand.Rand, g ConvGeom, n, outC int) {
	t.Helper()
	kdim := g.InC * g.KH * g.KW
	inSz := g.InC * g.InH * g.InW
	src := make([]uint8, n*inSz)
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(rng.Intn(255) - 127)
	}
	pad := uint8(rng.Intn(256))
	packed, err := PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveConvAccRef(src, n, g, pad, wt, outC)
	imp := implicitAcc(t, g, src, n, packed, pad)
	for i := range want {
		if imp[i] != want[i] {
			t.Fatalf("%+v n=%d outC=%d: implicit[%d] = %d, naive %d", g, n, outC, i, imp[i], want[i])
		}
	}
}

// implicitAcc runs ConvU8I8ImplicitInto at the current dispatch and
// worker bound and returns the accumulator.
func implicitAcc(t *testing.T, g ConvGeom, src []uint8, n int, packed *PackedI8, pad uint8) []int32 {
	t.Helper()
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := g.OutHW()
	acc := make([]int32, n*oh*ow*packed.Cols())
	if err := ConvU8I8ImplicitInto(acc, src, n, packed, plan, pad, implicitWork(plan, n*plan.Bands())); err != nil {
		t.Fatal(err)
	}
	return acc
}

// fuzzRange maps a fuzz byte onto [lo, hi], keeping values already in
// range unchanged so corpus entries read as the geometry they encode.
func fuzzRange(v uint8, lo, hi int) int {
	span := hi - lo + 1
	return lo + ((int(v)-lo)%span+span)%span
}

// FuzzConvU8I8Implicit drives arbitrary geometries (InC 1–8, InH/InW
// 1–20, KH/KW 1–5, stride 1–3, pad 0–2, batch 1–4, outC 1–16), zero
// points and payloads through ConvU8I8ImplicitInto and requires the
// naive accumulator bit for bit under the portable dispatch and, where
// the host has one, the SIMD dispatch. The payload bytes fill the
// activations and, read from the middle, the weights (−128 clamps to the
// symmetric quantizer's −127). The seed corpus in
// testdata/fuzz/FuzzConvU8I8Implicit holds one entry per conv geometry
// of the 16×16 serving zoo (channels capped at 8), stride 3 included.
func FuzzConvU8I8Implicit(f *testing.F) {
	f.Fuzz(func(t *testing.T, inC, inH, inW, kh, kw, stride, pad, batch, outCB, zp uint8, payload []byte) {
		g := ConvGeom{
			InC: fuzzRange(inC, 1, 8), InH: fuzzRange(inH, 1, 20), InW: fuzzRange(inW, 1, 20),
			KH: fuzzRange(kh, 1, 5), KW: fuzzRange(kw, 1, 5),
			Stride: fuzzRange(stride, 1, 3), Pad: fuzzRange(pad, 0, 2),
		}
		if g.Validate() != nil {
			return
		}
		n, outC := fuzzRange(batch, 1, 4), fuzzRange(outCB, 1, 16)
		if len(payload) == 0 {
			payload = []byte{0}
		}
		l := len(payload)
		src := make([]uint8, n*g.InC*g.InH*g.InW)
		for i := range src {
			src[i] = payload[i%l] ^ uint8(i/l*37)
		}
		kdim := g.InC * g.KH * g.KW
		wt := make([]int8, outC*kdim)
		for i := range wt {
			if wt[i] = int8(payload[(i+l/2)%l] ^ uint8(i/l*91)); wt[i] == -128 {
				wt[i] = -127
			}
		}
		packed, err := PackI8PanelsBT(wt, kdim, outC)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConvAccRef(src, n, g, zp, wt, outC)
		modes := []bool{false}
		if SIMDFeatures() != "" {
			modes = append(modes, true)
		}
		for _, on := range modes {
			prev := SetSIMD(on)
			got := implicitAcc(t, g, src, n, packed, zp)
			SetSIMD(prev)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v n=%d outC=%d zp=%d simd=%v: acc[%d] = %d, naive %d",
						g, n, outC, zp, on, i, got[i], want[i])
				}
			}
		}
	})
}

// TestGatherBand3MatchesUnstaged pins the staged 3×3 band gather (the
// padded staging strip + branch-free compose, SIMD pack kernel
// included) byte-for-byte against the unstaged per-row packer on every
// band of every sample — including the spill contract of the 16-byte
// pack-kernel stores: a spilled byte that survives anywhere in the
// band's patch rows shows up as a mismatch here.
func TestGatherBand3MatchesUnstaged(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	geoms := []ConvGeom{
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 9, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 2},
		{InC: 2, InH: 11, InW: 11, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 5, InH: 7, InW: 9, KH: 3, KW: 3, Stride: 1, Pad: 0},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, g := range geoms {
			g := g
			t.Run(fmt.Sprintf("c%d_%dx%d_s%d_p%d", g.InC, g.InH, g.InW, g.Stride, g.Pad), func(t *testing.T) {
				plan, err := NewConvPlanU8(g)
				if err != nil {
					t.Fatal(err)
				}
				if plan.stage == 0 {
					t.Fatal("3×3 plan did not enable the staged gather")
				}
				n := 2
				src := make([]uint8, n*g.InC*g.InH*g.InW)
				for i := range src {
					src[i] = uint8(rng.Intn(256))
				}
				pad := uint8(rng.Intn(256))
				kdim := plan.kdim
				rowLen := plan.ow * kdim
				buf := make([]uint8, plan.BandLen())
				want := make([]uint8, plan.brows*rowLen)
				for task := 0; task < n*plan.Bands(); task++ {
					for i := range buf {
						buf[i] = 0xA5 // stale lane bytes must not leak through
					}
					m := plan.GatherBandInto(buf, src, pad, task)
					i, oy0, oy1 := plan.bandSpan(task)
					img := src[i*g.InC*g.InH*g.InW:][:g.InC*g.InH*g.InW]
					for oy := oy0; oy < oy1; oy++ {
						im2colU8PatchRow(want[(oy-oy0)*rowLen:][:rowLen], img, g, pad, oy, plan.xlo, plan.xhi)
					}
					if m != (oy1-oy0)*plan.ow {
						t.Fatalf("task %d: m = %d, want %d", task, m, (oy1-oy0)*plan.ow)
					}
					for j := 0; j < m*kdim; j++ {
						if buf[j] != want[j] {
							t.Fatalf("task %d: staged byte %d = %d, unstaged %d", task, j, buf[j], want[j])
						}
					}
				}
			})
		}
	})
}

// TestConvImplicitDeterministicAcrossWorkers pins the bit-identity
// contract across worker counts: the implicit driver's banding and lane
// assignment must not leak into results.
func TestConvImplicitDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := ConvGeom{InC: 4, InH: 13, InW: 13, KH: 3, KW: 3, Stride: 1, Pad: 1}
	n, outC := 4, 10
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	src := make([]uint8, n*g.InC*g.InH*g.InW)
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(rng.Intn(255) - 127)
	}
	packed, err := PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	ns := n * oh * ow
	var ref []int32
	for _, workers := range []int{1, 2, 3, 8} {
		prev := SetMaxWorkers(workers)
		acc := make([]int32, ns*outC)
		work := implicitWork(plan, n*plan.Bands())
		err := ConvU8I8ImplicitInto(acc, src, n, packed, plan, 128, work)
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = acc
			continue
		}
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("workers=%d: acc[%d] = %d, want %d", workers, i, acc[i], ref[i])
			}
		}
	}
}

// TestConvImplicitErrors covers the driver's validation surface.
func TestConvImplicitErrors(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	kdim := g.InC * g.KH * g.KW
	packed, err := PackI8PanelsBT(make([]int8, 4*kdim), kdim, 4)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := g.OutHW()
	src := make([]uint8, 2*g.InC*g.InH*g.InW)
	acc := make([]int32, 2*oh*ow*4)
	work := implicitWork(plan, 2*plan.Bands())

	if err := ConvU8I8ImplicitInto(acc, src, 0, packed, plan, 0, work); err == nil {
		t.Error("zero batch did not error")
	}
	if err := ConvU8I8ImplicitInto(acc, src[:5], 2, packed, plan, 0, work); err == nil {
		t.Error("short src did not error")
	}
	if err := ConvU8I8ImplicitInto(acc[:5], src, 2, packed, plan, 0, work); err == nil {
		t.Error("short acc did not error")
	}
	if err := ConvU8I8ImplicitInto(acc, src, 2, packed, plan, 0, work[:2]); err == nil {
		t.Error("short work did not error")
	}
	wrongK, err := PackI8PanelsBT(make([]int8, 4*(kdim+1)), kdim+1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ConvU8I8ImplicitInto(acc, src, 2, wrongK, plan, 0, work); err == nil {
		t.Error("mismatched packed k did not error")
	}
	if _, err := NewConvPlanU8(ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0}); err == nil {
		t.Error("degenerate geometry did not error")
	}
}

// TestConvImplicitSerialPathAllocs pins the zero-allocation contract of
// the serial driver: plan, packed weights and work lanes are built once;
// the per-call path allocates nothing.
func TestConvImplicitSerialPathAllocs(t *testing.T) {
	g := ConvGeom{InC: 4, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	n, outC := 2, 8
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	src := make([]uint8, n*g.InC*g.InH*g.InW)
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(i%13 - 6)
	}
	packed, err := PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]int32, n*oh*ow*outC)
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	work := implicitWork(plan, n*plan.Bands())
	allocs := testing.AllocsPerRun(20, func() {
		if err := ConvU8I8ImplicitInto(acc, src, n, packed, plan, 7, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial implicit conv allocates %v objects per call, want 0", allocs)
	}
}
