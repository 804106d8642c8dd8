package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) element-wise. With a positive Cap it becomes the
// clipped variant (ReLU6 for Cap = 6) used by MobileNetV2.
type ReLU struct {
	name string
	cap  float32        // 0 = unbounded
	out  *tensor.Tensor // forward output, read by backward; nil = no pending forward

	outA arenaTensor
	dxA  arenaTensor
}

// NewReLU returns an unbounded rectifier.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// NewReLU6 returns the clipped rectifier min(max(0,x),6).
func NewReLU6(name string) *ReLU { return &ReLU{name: name, cap: 6} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Cap returns the clipping point (0 = unbounded ReLU, 6 = ReLU6).
func (r *ReLU) Cap() float32 { return r.cap }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := r.outA.like(x)
	perSample(batchOf(x), reluForward, out.Data(), x.Data(), nil, r.cap)
	r.out = out
	return out, nil
}

// Backward implements Layer. The pass-through region is read back from the
// forward output (arena rule 1 keeps it valid), so no mask is cached.
func (r *ReLU) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if r.out == nil {
		return nil, fmt.Errorf("relu %q: backward before forward", r.name)
	}
	if dout.Len() != r.out.Len() {
		return nil, fmt.Errorf("relu %q: %w: dout %v vs cached %d elems", r.name, tensor.ErrShape, dout.Shape(), r.out.Len())
	}
	dx := r.dxA.like(dout)
	perSample(batchOf(dout), reluBackward, dx.Data(), dout.Data(), r.out.Data(), r.cap)
	r.out = nil
	return dx, nil
}

// Element-wise kernels. Each writes dst[i] from element i of its inputs
// and nothing else, so perSample may hand them any sub-range. They are
// branch-free per element: the sign of an activation is random, and a
// branch on it mispredicts about half the time. Each test sets an integer
// bit-mask (CMOV, not a jump) that either keeps a value's bits or clears
// them to +0, so the kernels agree bit for bit with the branchy
// definitions on ±0, ±Inf, subnormals and NaN payloads alike. (The max
// builtin is branch-free too but canonicalises a negative NaN's sign.)

// reluForward writes x where !(x <= 0), +0 elsewhere, and c where x >= c
// when c > 0.
func reluForward(dst, x, _ []float32, c float32) {
	x = x[:len(dst)]
	if c > 0 {
		cb := math.Float32bits(c)
		for i, v := range x {
			b := math.Float32bits(v)
			if v <= 0 {
				b = 0
			}
			if v >= c {
				b = cb
			}
			dst[i] = math.Float32frombits(b)
		}
		return
	}
	for i, v := range x {
		m := ^uint32(0)
		if v <= 0 {
			m = 0
		}
		dst[i] = math.Float32frombits(math.Float32bits(v) & m)
	}
}

// reluBackward writes dy where the forward output o lies strictly inside
// the pass-through region and +0 elsewhere. o ∈ {+0} ∪ (0, c] ∪ {NaN}, so
// !(o <= 0) && !(o >= c) is exactly "the forward input was not clipped".
func reluBackward(dst, dy, out []float32, c float32) {
	dy = dy[:len(dst)]
	out = out[:len(dst)]
	if c > 0 {
		for i, o := range out {
			m := ^uint32(0)
			if o <= 0 {
				m = 0
			}
			if o >= c {
				m = 0
			}
			dst[i] = math.Float32frombits(math.Float32bits(dy[i]) & m)
		}
		return
	}
	for i, o := range out {
		m := ^uint32(0)
		if o <= 0 {
			m = 0
		}
		dst[i] = math.Float32frombits(math.Float32bits(dy[i]) & m)
	}
}

// addForward writes a + b.
func addForward(dst, a, b []float32, _ float32) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// addReLUForward writes a + b where the sum is > 0 and +0 elsewhere, NaN
// included: the residual join zeroes everything that is not positive.
func addReLUForward(dst, a, b []float32, _ float32) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		s := a[i] + b[i]
		m := uint32(0)
		if s > 0 {
			m = ^uint32(0)
		}
		dst[i] = math.Float32frombits(math.Float32bits(s) & m)
	}
}

// batchOf returns the leading (batch) dimension of t, 1 for a scalar.
func batchOf(t *tensor.Tensor) int {
	if t.Rank() > 0 {
		return t.Dim(0)
	}
	return 1
}

// perSample runs kern over dst and its inputs a and b (nil when unused),
// split into n equal per-sample ranges across tensor.ParallelFor. A serial
// call (one sample or MaxWorkers()==1) runs kern once over the whole
// range with no closure, so it allocates nothing.
func perSample(n int, kern func(dst, a, b []float32, c float32), dst, a, b []float32, c float32) {
	if n <= 1 || tensor.MaxWorkers() == 1 {
		kern(dst, a, b, c)
		return
	}
	per := len(dst) / n
	tensor.ParallelFor(n, func(i int) {
		lo, hi := i*per, (i+1)*per
		kern(dst[lo:hi], span(a, lo, hi), span(b, lo, hi), c)
	})
}

// span returns s[lo:hi], or nil for an unused (nil) input.
func span(s []float32, lo, hi int) []float32 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}
