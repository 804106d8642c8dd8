package nn

import (
	"testing"

	"repro/internal/tensor"
)

// testConv builds the SmallCNN-shaped first convolution used by the arena
// and parallelism tests.
func testConv(t *testing.T, bias bool) (*Conv2D, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(7)
	conv, err := NewConv2D(Conv2DConfig{
		Name: "c",
		In:   tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		OutC: 8, Bias: bias, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 16, 16)
	x.FillNormal(rng, 0, 1)
	return conv, x
}

// TestConvSteadyStateAllocs pins the zero-alloc property of the conv
// hot path: once the arenas and the implicit conv's scratch lanes are
// warm, a serial forward+backward pair allocates nothing.
func TestConvSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1) // serial: measure layer allocs, not pool jobs
	defer tensor.SetMaxWorkers(prev)
	conv, x := testConv(t, true)
	dout := tensor.New(4, 8, 16, 16)
	dout.Fill(0.01)
	step := func() {
		if _, err := conv.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := conv.Backward(dout); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the arenas
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Fatalf("steady-state conv forward+backward allocates %.0f objects per step, want 0", allocs)
	}
}

// TestLinearSteadyStateAllocs pins the same property for the linear layer.
func TestLinearSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(8)
	lin, err := NewLinear("l", 64, 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(16, 64)
	x.FillNormal(rng, 0, 1)
	dout := tensor.New(16, 10)
	dout.Fill(0.05)
	step := func() {
		if _, err := lin.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := lin.Backward(dout); err != nil {
			t.Fatal(err)
		}
	}
	step()
	// The residual allocations are the ParallelFor closure headers of the
	// three GEMM calls (a few words each), not data buffers.
	allocs := testing.AllocsPerRun(10, step)
	if allocs > 12 {
		t.Fatalf("steady-state linear forward+backward allocates %.0f objects per step, want <= 12", allocs)
	}
}

// TestConvParallelMatchesSerial runs the batched conv forward/backward
// under several worker counts and demands bit-identical results; under
// `go test -race` this also exercises the parallel sections for data races
// (the seed's shared ferr write was one).
func TestConvParallelMatchesSerial(t *testing.T) {
	conv, x := testConv(t, true)
	dout := tensor.New(4, 8, 16, 16)
	rng := tensor.NewRNG(9)
	dout.FillNormal(rng, 0, 1)

	prev := tensor.SetMaxWorkers(1)
	outS, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	outSer := outS.Clone()
	dxS, err := conv.Backward(dout)
	if err != nil {
		t.Fatal(err)
	}
	dxSer := dxS.Clone()
	gwSer := conv.weight.Grad.Clone()
	tensor.SetMaxWorkers(prev)

	for _, workers := range []int{2, 4, 8} {
		conv.weight.Grad.Zero()
		conv.bias.Grad.Zero()
		tensor.SetMaxWorkers(workers)
		outP, err := conv.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range outP.Data() {
			if v != outSer.Data()[i] {
				t.Fatalf("workers=%d: forward elem %d differs: %v vs %v", workers, i, v, outSer.Data()[i])
			}
		}
		dxP, err := conv.Backward(dout)
		if err != nil {
			t.Fatal(err)
		}
		tensor.SetMaxWorkers(prev)
		for i, v := range dxP.Data() {
			if v != dxSer.Data()[i] {
				t.Fatalf("workers=%d: dx elem %d differs: %v vs %v", workers, i, v, dxSer.Data()[i])
			}
		}
		for i, v := range conv.weight.Grad.Data() {
			if v != gwSer.Data()[i] {
				t.Fatalf("workers=%d: dW elem %d differs: %v vs %v", workers, i, v, gwSer.Data()[i])
			}
		}
	}
}

// TestConvArenaHandlesShrinkingBatch checks the arenas re-slice correctly
// when batch size drops (the trainer's last partial batch) and grows back.
func TestConvArenaHandlesShrinkingBatch(t *testing.T) {
	rng := tensor.NewRNG(11)
	conv, x := testConv(t, true)
	big, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	bigClone := big.Clone()

	small := tensor.New(2, 3, 16, 16)
	small.FillNormal(rng, 0, 1)
	outSmall, err := conv.Forward(small, true)
	if err != nil {
		t.Fatal(err)
	}
	if outSmall.Dim(0) != 2 {
		t.Fatalf("small-batch output shape %v", outSmall.Shape())
	}
	doutSmall := tensor.New(2, 8, 16, 16)
	doutSmall.Fill(0.1)
	if _, err := conv.Backward(doutSmall); err != nil {
		t.Fatal(err)
	}

	// Growing back must reproduce the original full-batch output exactly.
	again, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range again.Data() {
		if v != bigClone.Data()[i] {
			t.Fatalf("batch regrow: elem %d differs: %v vs %v", i, v, bigClone.Data()[i])
		}
	}
}

// TestConvBackwardBeforeForward preserves the layer's misuse diagnostics
// with the arena-based state tracking.
func TestConvBackwardBeforeForward(t *testing.T) {
	conv, x := testConv(t, false)
	dout := tensor.New(4, 8, 16, 16)
	if _, err := conv.Backward(dout); err == nil {
		t.Fatal("backward before any forward should error")
	}
	if _, err := conv.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Backward(dout); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Backward(dout); err == nil {
		t.Fatal("second backward without a new forward should error")
	}
}
