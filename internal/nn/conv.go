package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW batches, lowered through
// the implicit-im2col tensor.ConvF32: bands of whole samples are gathered
// from the input into per-worker packed panels and run through the FMA
// micro-kernels, so no patch or column-gradient matrix is ever held.
// Backward rebuilds the patches from the forward input, which the layer
// keeps a reference to (arena rule 1 keeps it valid until backward). The
// output and input-gradient tensors live in arenas allocated at the first
// forward and reused every step, so steady-state training allocates
// nothing on this path. The input spatial size is fixed at construction
// (CIFAR-style pipelines have static geometry), which lets the layer
// report exact MAC counts to the energy model.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	outC   int
	weight *Param // (outC, inC, KH, KW)
	bias   *Param // (outC), nil when disabled
	conv   *tensor.ConvF32
	x      *tensor.Tensor // forward input, read again by backward
	ready  bool           // forward ran since the last backward

	out arenaTensor // (N, outC, OH, OW)
	dx  arenaTensor // (N, inC, InH, InW)
}

// Conv2DConfig configures NewConv2D.
type Conv2DConfig struct {
	Name string
	In   tensor.ConvGeom // InC/InH/InW/KH/KW/Stride/Pad
	OutC int
	Bias bool
	RNG  *tensor.RNG
}

// NewConv2D constructs a convolution with He-normal initialized weights.
func NewConv2D(cfg Conv2DConfig) (*Conv2D, error) {
	if err := cfg.In.Validate(); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", cfg.Name, err)
	}
	if cfg.OutC <= 0 {
		return nil, fmt.Errorf("conv2d %q: %w: outC %d", cfg.Name, tensor.ErrShape, cfg.OutC)
	}
	g := cfg.In
	conv, err := tensor.NewConvF32(g, cfg.OutC)
	if err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", cfg.Name, err)
	}
	w := tensor.New(cfg.OutC, g.InC, g.KH, g.KW)
	w.FillHeNormal(cfg.RNG, g.InC*g.KH*g.KW)
	c := &Conv2D{
		name:   cfg.Name,
		geom:   g,
		outC:   cfg.OutC,
		weight: NewParam(cfg.Name+".weight", w),
		conv:   conv,
	}
	if cfg.Bias {
		c.bias = NewParam(cfg.Name+".bias", tensor.New(cfg.OutC))
	}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.bias == nil {
		return []*Param{c.weight}
	}
	return []*Param{c.weight, c.bias}
}

// MACs implements Coster: outC · OH · OW · inC · KH · KW per sample.
func (c *Conv2D) MACs() int64 {
	oh, ow := c.geom.OutHW()
	return int64(c.outC) * int64(oh) * int64(ow) *
		int64(c.geom.InC) * int64(c.geom.KH) * int64(c.geom.KW)
}

// Geom exposes the convolution geometry (used by model builders).
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// Forward implements Layer. The returned tensor is owned by the layer and
// is overwritten by the next Forward call (see the arena contract).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != c.geom.InC || x.Dim(2) != c.geom.InH || x.Dim(3) != c.geom.InW {
		return nil, fmt.Errorf("conv2d %q: %w: input %v, want (N,%d,%d,%d)",
			c.name, tensor.ErrShape, x.Shape(), c.geom.InC, c.geom.InH, c.geom.InW)
	}
	oh, ow := c.geom.OutHW()
	out := c.out.get(x.Dim(0), c.outC, oh, ow)
	var bias []float32
	if c.bias != nil {
		bias = c.bias.Value.Data()
	}
	if err := c.conv.Forward(out, x, c.weight.Value.Data(), bias); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", c.name, err)
	}
	c.x = x
	c.ready = true
	return out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if !c.ready {
		return nil, fmt.Errorf("conv2d %q: backward before forward", c.name)
	}
	var gb []float32
	if c.bias != nil {
		gb = c.bias.Grad.Data()
	}
	dx := c.dx.get(c.x.Dim(0), c.geom.InC, c.geom.InH, c.geom.InW)
	if err := c.conv.Backward(dx, dout, c.x, c.weight.Value.Data(), c.weight.Grad.Data(), gb); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", c.name, err)
	}
	c.x = nil
	c.ready = false
	return dx, nil
}
