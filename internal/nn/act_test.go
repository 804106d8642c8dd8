package nn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The branchy element-wise loops the ReLU and Residual layers ran before
// they became branch-free, batch-parallel passes. They are the oracles the
// layers are pinned against bit for bit.

// reluOracle rectifies x (clipped at c when c > 0) and returns the
// pass-through mask backward used.
func reluOracle(x []float32, c float32) (out []float32, mask []bool) {
	out = make([]float32, len(x))
	mask = make([]bool, len(x))
	for i, v := range x {
		switch {
		case v <= 0:
			out[i] = 0
		case c > 0 && v >= c:
			out[i] = c
		default:
			out[i] = v
			mask[i] = true
		}
	}
	return out, mask
}

// residualJoinOracle adds the branch outputs and, with relu, zeroes every
// sum that is not positive.
func residualJoinOracle(main, short []float32, relu bool) (out []float32, mask []bool) {
	out = make([]float32, len(main))
	copy(out, main)
	for i, v := range short {
		out[i] += v
	}
	if !relu {
		return out, nil
	}
	mask = make([]bool, len(out))
	for i, v := range out {
		if v > 0 {
			mask[i] = true
		} else {
			out[i] = 0
		}
	}
	return out, mask
}

// maskOracle passes dy where mask is set and writes 0 elsewhere.
func maskOracle(dy []float32, mask []bool) []float32 {
	dx := make([]float32, len(dy))
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		}
	}
	return dx
}

// specialTensor fills an (n, 3, 4, 5) tensor with N(0, 4) noise and
// overwrites its head with the values where a sign test can go wrong.
func specialTensor(rng *tensor.RNG, n int, c float32) *tensor.Tensor {
	t := tensor.New(n, 3, 4, 5)
	t.FillNormal(rng, 0, 4)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(1)           // smallest positive subnormal
	subMax := math.Float32frombits(0x7fffff) // largest subnormal
	specials := []float32{
		float32(math.Copysign(0, -1)), 0, inf, -inf, nan, -nan,
		sub, -sub, subMax, -subMax, c, -c, math.Nextafter32(c, 0),
		math.Nextafter32(c, 100), math.MaxFloat32, -math.MaxFloat32,
	}
	d := t.Data()
	for i, v := range specials {
		d[(i*7)%len(d)] = v
	}
	return t
}

// bitsEqual fails t unless got and want agree bit for bit.
func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elems, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// forEachSplit runs body at batches 1/3/64 under 1, 2 and 3 workers.
func forEachSplit(t *testing.T, body func(t *testing.T, n int)) {
	for _, workers := range []int{1, 2, 3} {
		prev := tensor.SetMaxWorkers(workers)
		for _, n := range []int{1, 3, 64} {
			body(t, n)
		}
		tensor.SetMaxWorkers(prev)
	}
}

func TestReLUMatchesBranchyOracle(t *testing.T) {
	rng := tensor.NewRNG(11)
	forEachSplit(t, func(t *testing.T, n int) {
		for _, r := range []*ReLU{NewReLU("r"), NewReLU6("r6")} {
			x := specialTensor(rng, n, r.Cap())
			dy := specialTensor(rng, n, r.Cap())
			wantOut, mask := reluOracle(x.Data(), r.Cap())
			out, err := r.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, r.Name()+" out", out.Data(), wantOut)
			dx, err := r.Backward(dy)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, r.Name()+" dx", dx.Data(), maskOracle(dy.Data(), mask))
		}
	})
}

// fixedLayer returns a preset output and a preset input gradient, and
// records the gradient it was handed.
type fixedLayer struct {
	y, dx *tensor.Tensor
	gotDy []float32
}

func (f *fixedLayer) Name() string     { return "fixed" }
func (f *fixedLayer) Params() []*Param { return nil }
func (f *fixedLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	return f.y, nil
}
func (f *fixedLayer) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	f.gotDy = append(f.gotDy[:0], dout.Data()...)
	return f.dx, nil
}

func TestResidualMatchesBranchyOracle(t *testing.T) {
	rng := tensor.NewRNG(12)
	forEachSplit(t, func(t *testing.T, n int) {
		for _, tc := range []struct {
			name           string
			relu, shortcut bool
		}{
			{"identity", true, false},
			{"projection", true, true},
			{"linear", false, false},
			{"linear-projection", false, true},
		} {
			x := specialTensor(rng, n, 0)
			main := &fixedLayer{y: specialTensor(rng, n, 0), dx: specialTensor(rng, n, 0)}
			var short *fixedLayer
			var shortLayer Layer // nil interface = identity shortcut
			sy := x
			if tc.shortcut {
				short = &fixedLayer{y: specialTensor(rng, n, 0), dx: specialTensor(rng, n, 0)}
				shortLayer, sy = short, short.y
			}
			res := NewLinearResidual("res", main, shortLayer)
			if tc.relu {
				res = NewResidual("res", main, shortLayer)
			}
			dout := specialTensor(rng, n, 0)

			wantOut, mask := residualJoinOracle(main.y.Data(), sy.Data(), tc.relu)
			out, err := res.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, tc.name+" out", out.Data(), wantOut)

			wantDy := dout.Data()
			if tc.relu {
				wantDy = maskOracle(dout.Data(), mask)
			}
			dshort := wantDy
			if short != nil {
				dshort = short.dx.Data()
			}
			wantDx, _ := residualJoinOracle(main.dx.Data(), dshort, false)
			dx, err := res.Backward(dout)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, tc.name+" main dy", main.gotDy, wantDy)
			if short != nil {
				bitsEqual(t, tc.name+" shortcut dy", short.gotDy, wantDy)
			}
			bitsEqual(t, tc.name+" dx", dx.Data(), wantDx)
		}
	})
}

// TestElementwiseSteadyStateAllocs pins the zero-alloc property of the
// element-wise passes: a serial forward+backward of ReLU, ReLU6 and a
// residual join (ReLU main branch, ReLU6 shortcut) allocates nothing once
// the arenas are warm.
func TestElementwiseSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1) // serial: measure layer allocs, not pool jobs
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(13)
	x := tensor.New(8, 4, 6, 6)
	x.FillNormal(rng, 0, 4)
	dout := tensor.New(8, 4, 6, 6)
	dout.FillNormal(rng, 0, 1)
	layers := []Layer{
		NewReLU("r"),
		NewReLU6("r6"),
		NewResidual("res", NewReLU("res.r"), NewReLU6("res.r6")),
		NewLinearResidual("lres", NewReLU("lres.r"), nil),
	}
	for _, l := range layers {
		step := func() {
			if _, err := l.Forward(x, true); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Backward(dout); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the arenas
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("%s: steady-state forward+backward allocates %.0f objects per step, want 0", l.Name(), allocs)
		}
	}
}

// TestElementwiseBackwardMisuse pins the diagnostics the layers give
// without a cached mask: backward before any forward, a second backward
// for one forward, and a dout whose size differs from the forward output.
func TestElementwiseBackwardMisuse(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	x.Fill(1)
	dout := tensor.New(2, 3, 4, 4)
	wrong := tensor.New(2, 3, 4, 5)
	for _, l := range []Layer{
		NewReLU("r"),
		NewReLU6("r6"),
		NewResidual("res", NewReLU("res.r"), nil),
		NewLinearResidual("lres", NewReLU("lres.r"), nil),
	} {
		if _, err := l.Backward(dout); err == nil {
			t.Errorf("%s: backward before forward succeeded", l.Name())
		}
		if _, err := l.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Backward(dout); err != nil {
			t.Fatalf("%s: backward: %v", l.Name(), err)
		}
		if _, err := l.Backward(dout); err == nil {
			t.Errorf("%s: second backward succeeded", l.Name())
		}
		if _, err := l.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Backward(wrong); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("%s: mismatched dout err = %v, want ErrShape", l.Name(), err)
		}
	}
}

// TestResidualRejectsMismatchedBranches keeps the join's shape check: a
// shortcut whose output differs from the main branch is an ErrShape.
func TestResidualRejectsMismatchedBranches(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	short := &fixedLayer{y: tensor.New(2, 3, 2, 2)}
	res := NewResidual("res", NewReLU("res.r"), short)
	if _, err := res.Forward(x, true); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("mismatched branches err = %v, want ErrShape", err)
	}
}
