package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution: input spatial size,
// kernel, stride and symmetric zero padding.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride        int
	Pad           int
}

// OutHW returns the spatial output size of the convolution.
func (g ConvGeom) OutHW() (int, int) {
	oh := (g.InH+2*g.Pad-g.KH)/g.Stride + 1
	ow := (g.InW+2*g.Pad-g.KW)/g.Stride + 1
	return oh, ow
}

// Validate returns an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("%w: conv geometry %+v has non-positive dims", ErrShape, g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("%w: conv stride %d must be positive", ErrShape, g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("%w: conv pad %d must be non-negative", ErrShape, g.Pad)
	}
	oh, ow := g.OutHW()
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: conv geometry %+v yields empty output %dx%d", ErrShape, g, oh, ow)
	}
	return nil
}
