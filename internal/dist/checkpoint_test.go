package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// haltResume runs mk()'s configuration in two legs — halted after haltAt
// rounds with a checkpoint, then resumed from that checkpoint to
// completion — and returns the resumed leg's stats. The combined
// trajectory must be indistinguishable from an uninterrupted run.
func haltResume(t *testing.T, mk func() Config, haltAt int) *Stats {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.state")
	cfg := mk()
	cfg.CheckpointPath = path
	cfg.HaltAfterRounds = haltAt
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("halt=%d: halted leg: %v", haltAt, err)
	}
	if !st.Halted {
		t.Fatalf("halt=%d: run did not report Halted", haltAt)
	}
	if st.Rounds != haltAt {
		t.Fatalf("halt=%d: halted leg stopped at %d rounds", haltAt, st.Rounds)
	}
	ts, err := models.LoadTrainState(path)
	if err != nil {
		t.Fatalf("halt=%d: LoadTrainState: %v", haltAt, err)
	}
	if ts.Rounds != haltAt {
		t.Fatalf("halt=%d: checkpoint records %d rounds", haltAt, ts.Rounds)
	}
	cfg = mk()
	cfg.CheckpointPath = path
	cfg.Resume = ts
	st, err = Run(cfg)
	if err != nil {
		t.Fatalf("halt=%d: resumed leg: %v", haltAt, err)
	}
	if st.Halted {
		t.Fatalf("halt=%d: resumed leg reported Halted", haltAt)
	}
	return st
}

// TestKillResumeBitIdentical is the resume acceptance criterion: killing
// a run at any round and resuming from its checkpoint reproduces the
// uninterrupted run's traffic, accuracies and final weights bit-exactly,
// per-worker replica state (worker-local batch-norm history) included.
// Halts at rounds 1 and 3 land mid-epoch; round 2 lands on the epoch
// boundary (the loader's cursor sits at the end of the epoch's order, not
// yet reshuffled).
func TestKillResumeBitIdentical(t *testing.T) {
	mk := func() Config { return testConfig(t, 2, 2) }
	base, err := Run(mk())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	for _, halt := range []int{1, 2, 3} {
		name := fmt.Sprintf("halt=%d", halt)
		t.Run(name, func(t *testing.T) {
			resumed := haltResume(t, mk, halt)
			assertIdenticalRuns(t, base, resumed, name)
		})
	}
}

// TestKillResumeBitIdenticalAPT repeats the round trip with every piece
// of optional trajectory state live: the APT controller's gradient
// history, the ternary codec's sampling RNG, quantized grids with fp32
// masters, and the bitwidth-aware broadcast.
func TestKillResumeBitIdenticalAPT(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t, 2, 2)
		cfg.Codec = NewTernaryCodec(99)
		cfg.APT = aptConfig()
		cfg.QuantBroadcast = true
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	for _, halt := range []int{1, 3} {
		t.Run(fmt.Sprintf("halt=%d", halt), func(t *testing.T) {
			resumed := haltResume(t, mk, halt)
			assertIdenticalRuns(t, base, resumed, fmt.Sprintf("APT halt=%d", halt))
		})
	}
}

// TestKillResumeAuxiliaryRNG: a caller-registered RNG stream (data
// augmentation in apttrain) must come back at its checkpointed cursor,
// not at whatever position the dying process left it.
func TestKillResumeAuxiliaryRNG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	aux := tensor.NewRNG(7)
	cfg := testConfig(t, 1, 1)
	cfg.CheckpointRNGs = []*tensor.RNG{aux}
	cfg.CheckpointPath = path
	cfg.HaltAfterRounds = 2
	if _, err := Run(cfg); err != nil {
		t.Fatalf("halted leg: %v", err)
	}
	want := aux.State()
	aux.Float64() // the dying process drew past the checkpoint

	ts, err := models.LoadTrainState(path)
	if err != nil {
		t.Fatalf("LoadTrainState: %v", err)
	}
	cfg = testConfig(t, 1, 1)
	cfg.CheckpointRNGs = []*tensor.RNG{aux}
	cfg.Resume = ts
	if _, err := Run(cfg); err != nil {
		t.Fatalf("resumed leg: %v", err)
	}
	if aux.State() == want {
		return
	}
	t.Errorf("auxiliary RNG state not restored from checkpoint")
}

// TestCheckpointPublishCadence pins the snapshot and publish schedule:
// with cadence 1 on the 2-round single-epoch run, the engine writes one
// checkpoint per round, one at the epoch boundary and one at the end,
// and publishes one serving checkpoint per round plus the final one.
func TestCheckpointPublishCadence(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.state")
	pub := filepath.Join(dir, "model.apt")
	cfg := testConfig(t, 2, 1)
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 1
	cfg.PublishPath = pub
	cfg.PublishEvery = 1
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Checkpoints != 4 {
		t.Errorf("Checkpoints = %d, want 4 (2 rounds + boundary + final)", st.Checkpoints)
	}
	if st.Publishes != 3 {
		t.Errorf("Publishes = %d, want 3 (2 rounds + final)", st.Publishes)
	}
	v, ok, err := models.CheckpointVersion(pub)
	if err != nil || !ok || v != st.Publishes {
		t.Errorf("published version = (%d, %v, %v), want (%d, true, nil)", v, ok, err, st.Publishes)
	}
	if _, err := models.LoadAutoFile(pub, "", 0, models.Config{Classes: 3, InputSize: 8, Seed: 1}); err != nil {
		t.Errorf("published checkpoint does not load: %v", err)
	}
	ts, err := models.LoadTrainState(ckpt)
	if err != nil {
		t.Fatalf("LoadTrainState: %v", err)
	}
	if ts.Epoch != cfg.Epochs || ts.Rounds != st.Rounds {
		t.Errorf("final checkpoint at epoch %d round %d, want epoch %d round %d",
			ts.Epoch, ts.Rounds, cfg.Epochs, st.Rounds)
	}
}

// TestResumeValidation: a checkpoint must refuse to resume into a run
// whose trajectory-relevant configuration differs, and a torn or
// truncated checkpoint file must be rejected outright.
func TestResumeValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	cfg := testConfig(t, 2, 2)
	cfg.CheckpointPath = path
	cfg.HaltAfterRounds = 1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("halted leg: %v", err)
	}
	ts, err := models.LoadTrainState(path)
	if err != nil {
		t.Fatalf("LoadTrainState: %v", err)
	}

	bad := testConfig(t, 2, 2)
	bad.Seed = 999
	bad.Resume = ts
	if _, err := Run(bad); err == nil {
		t.Error("seed mismatch did not error")
	}

	bad = testConfig(t, 2, 2)
	bad.APT = aptConfig() // checkpoint has no controller state
	bad.Resume = ts
	if _, err := Run(bad); err == nil {
		t.Error("controller mismatch did not error")
	}

	bad = testConfig(t, 2, 2)
	bad.Codec = NewTernaryCodec(1) // checkpoint has no codec RNG stream
	bad.Resume = ts
	if _, err := Run(bad); err == nil {
		t.Error("RNG stream count mismatch did not error")
	}

	// The checkpoint carries two workers' batch-norm history; a run with
	// a different pool cannot place it.
	bad = testConfig(t, 3, 2)
	bad.Resume = ts
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "worker replicas") {
		t.Errorf("worker count mismatch: err = %v, want a worker-replica count error", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := models.LoadTrainState(path); !errors.Is(err, models.ErrCorruptCheckpoint) {
		t.Errorf("corrupt checkpoint: err = %v, want ErrCorruptCheckpoint", err)
	}

	// Truncation tears off the trailer: no longer a train-state file.
	if err := os.WriteFile(path, raw[:len(raw)-24], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := models.LoadTrainState(path); err == nil {
		t.Error("truncated checkpoint loaded")
	}
}
