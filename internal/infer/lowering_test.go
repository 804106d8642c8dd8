package infer

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// compileSmall compiles the shared SmallCNN fixture.
func compileSmall(t *testing.T) (*Engine, *tensor.Tensor) {
	t.Helper()
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, _ := testBatch(t, te, 24)
	return eng, x
}

// strideFirstModel builds a tiny net whose FIRST conv is strided: the
// input quantize stages the batch once and the strided band gather reads
// it from there.
func strideFirstModel(t *testing.T) *models.Model {
	t.Helper()
	rng := tensor.NewRNG(17)
	conv1, err := nn.NewConv2D(nn.Conv2DConfig{
		Name: "c1",
		In:   tensor.ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 2, Pad: 1},
		OutC: 8, Bias: true, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := nn.NewConv2D(nn.Conv2DConfig{
		Name: "c2",
		In:   tensor.ConvGeom{InC: 8, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		OutC: 8, Bias: true, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewLinear("fc", 8*6*6, 4, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewSequential("stridefirst",
		conv1, nn.NewReLU("r1"), conv2, nn.NewReLU("r2"), nn.NewFlatten("fl"), fc)
	return &models.Model{Name: "stridefirst", Net: net, InC: 3, InH: 12, InW: 12, Class: 4}
}

// TestStrideFirstConvImplicitAcrossWorkers: every conv of a net with a
// strided first layer compiles onto the implicit lowering, and the
// logits are bit-identical under 1 and 3 workers (band tasks and gather
// lanes split differently, the integer result must not).
func TestStrideFirstConvImplicitAcrossWorkers(t *testing.T) {
	m := strideFirstModel(t)
	rng := tensor.NewRNG(99)
	calib := tensor.New(8, 3, 12, 12)
	calib.FillNormal(rng, 0, 1)
	x := tensor.New(5, 3, 12, 12)
	x.FillNormal(rng, 0, 1)

	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatal(err)
	}
	lows := eng.ConvLowerings()
	if len(lows) != 2 {
		t.Fatalf("got %d conv lowerings, want 2", len(lows))
	}
	for _, l := range lows {
		if l.Mode != "implicit" || l.Why == "" {
			t.Errorf("%s: lowering %q (%q), want implicit with a reason", l.Layer, l.Mode, l.Why)
		}
	}

	var ref []float32
	for _, workers := range []int{1, 3} {
		prev := tensor.SetMaxWorkers(workers)
		got, err := eng.Forward(x)
		tensor.SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got.Data()
			continue
		}
		for i, v := range got.Data() {
			if v != ref[i] {
				t.Fatalf("logit %d = %v under %d workers, serial %v", i, v, workers, ref[i])
			}
		}
	}
}

// TestForwardProfileMatchesForward pins that profiling changes no output
// bit and yields a sane stage split (stages sum to at most the total,
// every stage non-negative, conv stages actually attributed).
func TestForwardProfileMatchesForward(t *testing.T) {
	eng, x := compileSmall(t)
	ref, err := eng.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, prof, err := eng.ForwardProfile(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data() {
		if v != ref.Data()[i] {
			t.Fatalf("profiled logit %d = %v, plain %v", i, v, ref.Data()[i])
		}
	}
	if prof.Total <= 0 {
		t.Fatalf("profile total %v, want > 0", prof.Total)
	}
	if prof.Im2col < 0 || prof.GEMM < 0 || prof.Requant < 0 || prof.Other < 0 {
		t.Fatalf("negative stage in profile %+v", prof)
	}
	if sum := prof.Im2col + prof.GEMM + prof.Requant + prof.Other; sum > prof.Total+prof.Total/8 {
		t.Fatalf("stage sum %v exceeds total %v", sum, prof.Total)
	}
	if prof.GEMM == 0 {
		t.Fatalf("profile attributed no GEMM time: %+v", prof)
	}
}
