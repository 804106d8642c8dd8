package nn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestParamBitsLifecycle(t *testing.T) {
	rng := tensor.NewRNG(1)
	v := tensor.New(64)
	v.FillNormal(rng, 0, 1)
	p := NewParam("w", v)
	if p.Bits() != quant.MaxBits {
		t.Errorf("fresh param bits = %d, want %d", p.Bits(), quant.MaxBits)
	}
	if p.Eps() != 0 {
		t.Errorf("fresh param eps = %v, want 0", p.Eps())
	}
	if err := p.SetBits(6); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	if p.Bits() != 6 || p.Eps() <= 0 {
		t.Errorf("after SetBits(6): bits=%d eps=%v", p.Bits(), p.Eps())
	}
	if err := p.SetBits(1); !errors.Is(err, quant.ErrBits) {
		t.Errorf("SetBits(1) err = %v, want ErrBits", err)
	}
	if err := p.SetBits(quant.MaxBits); err != nil {
		t.Fatalf("SetBits(32): %v", err)
	}
	if p.Eps() != 0 {
		t.Errorf("32-bit eps = %v, want 0", p.Eps())
	}
}

func TestParamSizeBitsWithMaster(t *testing.T) {
	v := tensor.New(100)
	p := NewParam("w", v)
	if got := p.SizeBits(); got != 3200 {
		t.Errorf("fp32 SizeBits = %d, want 3200", got)
	}
	v.FillNormal(tensor.NewRNG(2), 0, 1)
	if err := p.SetBits(8); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	if got := p.SizeBits(); got != 800 {
		t.Errorf("8-bit SizeBits = %d, want 800", got)
	}
	p.EnableMaster()
	if got := p.SizeBits(); got != 800+3200 {
		t.Errorf("8-bit+master SizeBits = %d, want 4000", got)
	}
}

func TestParamQuantizeSnapsValues(t *testing.T) {
	rng := tensor.NewRNG(3)
	v := tensor.New(256)
	v.FillNormal(rng, 0, 1)
	p := NewParam("w", v)
	if err := p.SetBits(3); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	distinct := make(map[float32]bool)
	for _, x := range p.Value.Data() {
		distinct[x] = true
	}
	if len(distinct) > 8 {
		t.Errorf("3-bit param has %d levels, want <= 8", len(distinct))
	}
}

func TestConv2DMACs(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c, err := NewConv2D(Conv2DConfig{Name: "c", In: g, OutC: 16, RNG: rng})
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	want := int64(16) * 32 * 32 * 3 * 3 * 3
	if got := c.MACs(); got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
}

func TestConv2DShapeErrors(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c, err := NewConv2D(Conv2DConfig{Name: "c", In: g, OutC: 4, RNG: rng})
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	if _, err := c.Forward(tensor.New(1, 2, 8, 8), true); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("wrong channels err = %v, want ErrShape", err)
	}
	if _, err := c.Backward(tensor.New(1, 4, 8, 8)); err == nil {
		t.Error("backward before forward did not error")
	}
	if _, err := NewConv2D(Conv2DConfig{Name: "bad", In: g, OutC: 0, RNG: rng}); err == nil {
		t.Error("OutC=0 did not error")
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	rng := tensor.NewRNG(6)
	bn, err := NewBatchNorm2D("bn", 4)
	if err != nil {
		t.Fatalf("NewBatchNorm2D: %v", err)
	}
	x := tensor.New(8, 4, 5, 5)
	x.FillNormal(rng, 3, 2) // deliberately off-center
	out, err := bn.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	// Per-channel mean ~0, var ~1 (gamma=1, beta=0 initially).
	n, c, plane := 8, 4, 25
	for ch := 0; ch < c; ch++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			off := (i*c + ch) * plane
			for j := 0; j < plane; j++ {
				v := float64(out.Data()[off+j])
				sum += v
				sumSq += v * v
			}
		}
		cnt := float64(n * plane)
		mean := sum / cnt
		variance := sumSq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean = %v, want ~0", ch, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d var = %v, want ~1", ch, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(7)
	bn, err := NewBatchNorm2D("bn", 2)
	if err != nil {
		t.Fatalf("NewBatchNorm2D: %v", err)
	}
	// Train on shifted data for several steps so running stats converge.
	for i := 0; i < 50; i++ {
		x := tensor.New(8, 2, 4, 4)
		x.FillNormal(rng, 5, 1)
		if _, err := bn.Forward(x, true); err != nil {
			t.Fatalf("Forward: %v", err)
		}
		// Consume cache so the next training forward is clean.
		if _, err := bn.Backward(tensor.New(8, 2, 4, 4)); err != nil {
			t.Fatalf("Backward: %v", err)
		}
	}
	mean, _ := bn.RunningStats()
	for ch, m := range mean {
		if math.Abs(m-5) > 0.5 {
			t.Errorf("running mean[%d] = %v, want ~5", ch, m)
		}
	}
	// Eval mode must normalize the same distribution to ~0.
	x := tensor.New(8, 2, 4, 4)
	x.FillNormal(rng, 5, 1)
	out, err := bn.Forward(x, false)
	if err != nil {
		t.Fatalf("eval Forward: %v", err)
	}
	if m := out.Mean(); math.Abs(m) > 0.2 {
		t.Errorf("eval output mean = %v, want ~0", m)
	}
}

func TestReLUClipsAndMasks(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float32{-2, 0, 3}, 3)
	out, err := r.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float32{0, 0, 3}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Errorf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
	r6 := NewReLU6("r6")
	x6 := tensor.MustFromSlice([]float32{-1, 3, 9}, 3)
	out6, err := r6.Forward(x6, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want6 := []float32{0, 3, 6}
	for i, v := range out6.Data() {
		if v != want6[i] {
			t.Errorf("relu6[%d] = %v, want %v", i, v, want6[i])
		}
	}
	dout := tensor.MustFromSlice([]float32{1, 1, 1}, 3)
	dx, err := r6.Backward(dout)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	wantDx := []float32{0, 1, 0} // clipped regions pass no gradient
	for i, v := range dx.Data() {
		if v != wantDx[i] {
			t.Errorf("relu6 dx[%d] = %v, want %v", i, v, wantDx[i])
		}
	}
}

func TestMaxPoolSelectsMaxAndRoutesGrad(t *testing.T) {
	mp, err := NewMaxPool2D("mp", 2)
	if err != nil {
		t.Fatalf("NewMaxPool2D: %v", err)
	}
	x := tensor.MustFromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	out, err := mp.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Len() != 1 || out.Data()[0] != 4 {
		t.Fatalf("maxpool out = %v, want [4]", out.Data())
	}
	dx, err := mp.Backward(tensor.MustFromSlice([]float32{10}, 1, 1, 1, 1))
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	want := []float32{0, 0, 0, 10}
	for i, v := range dx.Data() {
		if v != want[i] {
			t.Errorf("maxpool dx[%d] = %v, want %v", i, v, want[i])
		}
	}
	if _, err := mp.Forward(tensor.New(1, 1, 3, 3), true); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("odd-size input err = %v, want ErrShape", err)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	gap := NewGlobalAvgPool("gap")
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out, err := gap.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 25 {
		t.Errorf("gap out = %v, want [2.5 25]", out.Data())
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.New(2, 3, 4, 4)
	out, err := f.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Dim(0) != 2 || out.Dim(1) != 48 {
		t.Fatalf("flatten shape = %v, want (2,48)", out.Shape())
	}
	dx, err := f.Backward(out)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if !dx.SameShape(x) {
		t.Errorf("flatten backward shape = %v, want %v", dx.Shape(), x.Shape())
	}
}

func TestResidualIdentityAddsInput(t *testing.T) {
	// With a main branch that outputs zeros, the residual is relu(x).
	zero := &constLayer{}
	res := NewResidual("res", zero, nil)
	x := tensor.MustFromSlice([]float32{-1, 2}, 1, 2, 1, 1)
	out, err := res.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Data()[0] != 0 || out.Data()[1] != 2 {
		t.Errorf("residual out = %v, want [0 2]", out.Data())
	}
}

// constLayer outputs zeros of the input shape; gradient passes through
// unchanged (it contributes nothing).
type constLayer struct{ shape []int }

func (c *constLayer) Name() string     { return "const" }
func (c *constLayer) Params() []*Param { return nil }
func (c *constLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	c.shape = x.Shape()
	return tensor.New(x.Shape()...), nil
}
func (c *constLayer) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.New(c.shape...), nil
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over K classes: loss = ln(K).
	logits := tensor.New(2, 4)
	var loss SoftmaxCrossEntropy
	l, grad, err := loss.Forward(logits, []int{0, 3})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if math.Abs(l-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln 4", l)
	}
	// Gradient rows sum to zero.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("grad row %d sums to %v, want 0", i, s)
		}
	}
	if _, _, err := loss.Forward(logits, []int{0}); err == nil {
		t.Error("label count mismatch did not error")
	}
	if _, _, err := loss.Forward(logits, []int{0, 9}); err == nil {
		t.Error("out-of-range label did not error")
	}
}

func TestSoftmaxCrossEntropyNumericalStability(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{1000, -1000, 500, 0}, 1, 4)
	var loss SoftmaxCrossEntropy
	l, grad, err := loss.Forward(logits, []int{0})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if math.IsNaN(l) || math.IsInf(l, 0) || grad.HasNaN() {
		t.Error("extreme logits produced NaN/Inf")
	}
	if math.Abs(l) > 1e-6 {
		t.Errorf("confident correct prediction loss = %v, want ~0", l)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{
		0.9, 0.1,
		0.2, 0.8,
		0.6, 0.4,
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("Accuracy = %v, want 2/3", got)
	}
}

func TestCollectParamsAndTotalMACs(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c1, err := NewConv2D(Conv2DConfig{Name: "c1", In: g, OutC: 2, RNG: rng})
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	lin, err := NewLinear("l", 32, 3, true, rng)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	layers := []Layer{c1, NewReLU("r"), NewFlatten("f"), lin}
	ps := CollectParams(layers)
	if len(ps) != 3 { // conv weight, linear weight, linear bias
		t.Errorf("CollectParams returned %d params, want 3", len(ps))
	}
	if got := TotalMACs(layers); got != c1.MACs()+lin.MACs() {
		t.Errorf("TotalMACs = %d, want %d", got, c1.MACs()+lin.MACs())
	}
}

// downsampleBlock builds a residual block whose main branch (3×3 stride-2
// conv, ReLU, 3×3 conv) and 1×1 stride-2 projection shortcut both read
// the block input, as ResNet's stage-entry blocks do.
func downsampleBlock(t *testing.T) (main, shortcut Layer) {
	t.Helper()
	rng := tensor.NewRNG(21)
	conv := func(name string, g tensor.ConvGeom, outC int) Layer {
		c, err := NewConv2D(Conv2DConfig{Name: name, In: g, OutC: outC, Bias: true, RNG: rng})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	main = NewSequential("main",
		conv("c1", tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 8),
		NewReLU("r"),
		conv("c2", tensor.ConvGeom{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8))
	shortcut = conv("sc", tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 1, KW: 1, Stride: 2, Pad: 0}, 8)
	return main, shortcut
}

// TestResidualShortcutSharesConvInput checks that a residual block whose
// main branch and downsample shortcut both keep the same input tensor for
// backward get exactly the gradients each branch computes on its own
// private copy of that input, over consecutive steps, and that neither
// branch writes the shared input.
func TestResidualShortcutSharesConvInput(t *testing.T) {
	main, short := downsampleBlock(t)
	res := NewLinearResidual("res", main, short)
	refMain, refShort := downsampleBlock(t)
	rng := tensor.NewRNG(22)
	for step := 0; step < 2; step++ {
		x := tensor.New(5, 4, 8, 8)
		x.FillNormal(rng, 0, 1)
		keep := x.Clone()
		dout := tensor.New(5, 8, 4, 4)
		dout.FillNormal(rng, 0, 1)
		if _, err := res.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		dx, err := res.Backward(dout)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x.Data() {
			if v != keep.Data()[i] {
				t.Fatalf("step %d: block input changed at %d", step, i)
			}
		}

		branch := func(l Layer) *tensor.Tensor {
			if _, err := l.Forward(keep.Clone(), true); err != nil {
				t.Fatal(err)
			}
			d, err := l.Backward(dout)
			if err != nil {
				t.Fatal(err)
			}
			return d.Clone()
		}
		want := branch(refMain)
		if err := want.Add(branch(refShort)); err != nil {
			t.Fatal(err)
		}
		for i, v := range dx.Data() {
			if v != want.Data()[i] {
				t.Fatalf("step %d: dx[%d] = %v, separate branches give %v", step, i, v, want.Data()[i])
			}
		}
		got, ref := res.Params(), append(refMain.Params(), refShort.Params()...)
		for j, p := range got {
			for i, g := range p.Grad.Data() {
				if g != ref[j].Grad.Data()[i] {
					t.Fatalf("step %d: %s grad[%d] = %v, separate branch gives %v", step, p.Name, i, g, ref[j].Grad.Data()[i])
				}
			}
		}
	}
}
