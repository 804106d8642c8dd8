// Command apttrain trains one backbone on SynthCIFAR with APT, a fixed
// bitwidth or fp32, printing per-epoch statistics — the generic training
// entry point for exploring the library outside the canned experiments.
//
// With -dist it trains data-parallel instead: N concurrent workers behind
// a parameter server, with a selectable gradient codec on the uplink; in
// -mode apt the server runs the precision controller and broadcasts
// weights bit-packed at each layer's current bitwidth.
//
// Distributed runs are operable: -checkpoint writes a complete resumable
// TrainState snapshot every -checkpoint-every rounds (atomically, with a
// version/CRC trailer), -resume restarts a killed run from it — in
// strict-barrier mode bit-identically to the uninterrupted run — and
// -publish periodically writes a bit-packed serving checkpoint that
// aptserve -watch hot-reloads. -heartbeat enables elastic worker
// membership: stalled workers are expelled from the gradient barrier and
// respawned within -max-respawns, the server steps on a -min-shards
// quorum, and stragglers' gradients fold in while at most -max-staleness
// rounds old. -halt-after stops a run cleanly after N rounds (a
// deterministic stand-in for a kill in resume tests).
//
// Usage:
//
//	apttrain -model resnet20 -classes 10 -epochs 20 -mode apt -tmin 6
//	apttrain -model smallcnn -mode fixed -bits 12
//	apttrain -model mobilenetv2 -mode fp32
//	apttrain -model smallcnn -mode apt -dist -workers 4 -codec ternary
//	apttrain -dist -checkpoint run.state -checkpoint-every 10 -halt-after 25
//	apttrain -dist -checkpoint run.state -resume -publish model.apt
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apttrain:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("apttrain", flag.ContinueOnError)
	modelName := fs.String("model", "resnet20", "backbone: resnet20, resnet110, mobilenetv2, cifarnet, vggsmall, smallcnn")
	classes := fs.Int("classes", 10, "number of classes")
	size := fs.Int("size", 16, "input spatial size")
	width := fs.Float64("width", 0.25, "backbone width multiplier")
	trainN := fs.Int("train", 1024, "training samples")
	testN := fs.Int("test", 384, "test samples")
	epochs := fs.Int("epochs", 18, "training epochs")
	batch := fs.Int("batch", 64, "mini-batch size")
	lr := fs.Float64("lr", 0.1, "base learning rate")
	mode := fs.String("mode", "apt", "training mode: apt, fixed, fp32")
	bits := fs.Int("bits", 8, "bitwidth for -mode fixed")
	initBits := fs.Int("init-bits", 6, "APT initial bitwidth")
	tmin := fs.Float64("tmin", 6.0, "APT Tmin threshold")
	tmax := fs.Float64("tmax", math.Inf(1), "APT Tmax threshold")
	noise := fs.Float64("noise", 0.8, "SynthCIFAR pixel-noise level (task difficulty)")
	seed := fs.Uint64("seed", 42, "master seed")
	distFlag := fs.Bool("dist", false, "train data-parallel through the concurrent parameter-server engine")
	workers := fs.Int("workers", 2, "data-parallel workers for -dist")
	codecName := fs.String("codec", "fp32", "-dist gradient codec: fp32, 8bit, ternary")
	savePath := fs.String("save", "", "write the trained model as a bit-packed checkpoint (not supported with -dist; use -publish)")
	ckptPath := fs.String("checkpoint", "", "-dist: write resumable TrainState snapshots to this path")
	ckptEvery := fs.Int("checkpoint-every", 0, "-dist: checkpoint cadence in server rounds (0 = only at halt and end of run)")
	resume := fs.Bool("resume", false, "-dist: resume from the -checkpoint snapshot")
	publishPath := fs.String("publish", "", "-dist: publish bit-packed serving checkpoints to this path (watched by aptserve -watch)")
	publishEvery := fs.Int("publish-every", 0, "-dist: publish cadence in server rounds (0 = only at end of run)")
	haltAfter := fs.Int("halt-after", 0, "-dist: stop cleanly after this many total rounds, writing a checkpoint")
	heartbeat := fs.Duration("heartbeat", 0, "-dist: heartbeat timeout for elastic worker membership (0 = strict barrier)")
	minShards := fs.Int("min-shards", 0, "-dist: step on this K-of-N gradient quorum once the heartbeat grace expires")
	maxStaleness := fs.Int("max-staleness", 0, "-dist: fold straggler gradients up to this many rounds old (0 = drop)")
	maxRespawns := fs.Int("max-respawns", 0, "-dist: budget for respawning workers declared dead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *savePath != "" && *distFlag {
		return fmt.Errorf("-save is not supported with -dist (use -publish)")
	}
	if !*distFlag {
		if *ckptPath != "" || *ckptEvery != 0 || *resume || *publishPath != "" || *publishEvery != 0 ||
			*haltAfter != 0 || *heartbeat != 0 || *minShards != 0 || *maxStaleness != 0 || *maxRespawns != 0 {
			return fmt.Errorf("-checkpoint/-resume/-publish/-halt-after and the elastic membership flags require -dist")
		}
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	cfg := models.Config{Classes: *classes, InputSize: *size, Width: *width, Seed: *seed}
	build := func() (*models.Model, error) { return models.Build(*modelName, cfg) }

	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: *classes, Train: *trainN, Test: *testN, Size: *size,
		Seed: *seed, Noise: *noise,
	})
	if err != nil {
		return err
	}
	// The augmentation RNG is kept addressable: a -dist run registers it
	// with the checkpoint machinery so a resumed run replays the exact
	// crop/flip draws of the uninterrupted one.
	augRNG := tensor.NewRNG(*seed ^ 0xA06)
	aug, err := data.NewAugmented(tr, max(*size/8, 1), *size, augRNG)
	if err != nil {
		return err
	}

	if *distFlag {
		// dist.Run builds the server model and the per-worker replicas
		// itself; don't materialize one here just to discard it.
		return runDist(out, distArgs{
			build: build, train: aug, test: te,
			workers: *workers, batch: *batch, epochs: *epochs,
			lr: *lr, seed: *seed, mode: *mode, codec: *codecName,
			initBits: *initBits, tmin: *tmin, tmax: *tmax,
			ckptPath: *ckptPath, ckptEvery: *ckptEvery, resume: *resume,
			publishPath: *publishPath, publishEvery: *publishEvery,
			haltAfter: *haltAfter, heartbeat: *heartbeat,
			minShards: *minShards, maxStaleness: *maxStaleness, maxRespawns: *maxRespawns,
			augRNG: augRNG,
		})
	}

	m, err := build()
	if err != nil {
		return err
	}
	tcfg := train.Config{
		Model: m, Train: aug, Test: te,
		BatchSize: *batch, Epochs: *epochs,
		Schedule: optim.StepSchedule{Base: *lr, Milestones: []int{*epochs / 2, *epochs * 3 / 4}, Factor: 0.1},
		Momentum: 0.9, WeightDecay: 1e-4,
		Seed: *seed, Log: out,
	}
	switch *mode {
	case "apt":
		c := core.DefaultConfig()
		c.InitBits = *initBits
		c.Tmin = *tmin
		c.Tmax = *tmax
		ctrl, err := core.NewController(c, m.Params())
		if err != nil {
			return err
		}
		tcfg.APT = ctrl
	case "fixed":
		if _, err := baselines.FixedBits(m.Params(), *bits); err != nil {
			return err
		}
	case "fp32":
		if _, err := baselines.FP32(m.Params()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q (want apt, fixed or fp32)", *mode)
	}

	hist, err := train.Run(tcfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfinal accuracy  %.4f (best %.4f)\n", hist.FinalAcc(), hist.BestAcc())
	fmt.Fprintf(out, "training energy %.3f of fp32\n", hist.NormalizedEnergy())
	fmt.Fprintf(out, "training memory %.3f of fp32\n", hist.NormalizedSize())
	if *savePath != "" {
		if err := saveCheckpoint(*savePath, m); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved checkpoint %s\n", *savePath)
	}
	return nil
}

// saveCheckpoint writes the trained model in the bit-packed
// models.Save format (loadable by aptserve -model) — atomically, with a
// version/CRC trailer, so a serving process re-reading the path on
// reload can never observe a torn file.
func saveCheckpoint(path string, m *models.Model) error {
	return models.SaveFileAtomic(path, m, 1)
}

type distArgs struct {
	build          func() (*models.Model, error)
	train, test    data.Dataset
	workers, batch int
	epochs         int
	lr             float64
	seed           uint64
	mode, codec    string
	initBits       int
	tmin, tmax     float64

	ckptPath     string
	ckptEvery    int
	resume       bool
	publishPath  string
	publishEvery int
	haltAfter    int
	heartbeat    time.Duration
	minShards    int
	maxStaleness int
	maxRespawns  int
	augRNG       *tensor.RNG
}

// runDist drives the concurrent parameter-server engine. In apt mode the
// server runs the precision controller and the weight broadcast ships
// bit-packed at each layer's current bitwidth.
func runDist(out io.Writer, a distArgs) error {
	cfg := dist.Config{
		Workers: a.workers, Build: a.build, Train: a.train, Test: a.test,
		BatchSize: a.batch, Epochs: a.epochs, LR: a.lr, Momentum: 0.9, Seed: a.seed,
		HeartbeatTimeout: a.heartbeat, MinShards: a.minShards,
		MaxStaleness: a.maxStaleness, MaxRespawns: a.maxRespawns,
		CheckpointPath: a.ckptPath, CheckpointEvery: a.ckptEvery,
		PublishPath: a.publishPath, PublishEvery: a.publishEvery,
		HaltAfterRounds: a.haltAfter,
		CheckpointRNGs:  []*tensor.RNG{a.augRNG},
	}
	if a.resume {
		st, err := models.LoadTrainState(a.ckptPath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		cfg.Resume = st
		fmt.Fprintf(out, "resuming from %s (epoch %d, round %d)\n", a.ckptPath, st.Epoch, st.Rounds)
	}
	switch a.mode {
	case "apt":
		c := core.DefaultConfig()
		c.InitBits = a.initBits
		c.Tmin = a.tmin
		c.Tmax = a.tmax
		c.Interval = 1 // rounds are coarser than iterations; observe each one
		cfg.APT = &c
		cfg.QuantBroadcast = true
	case "fp32":
	default:
		return fmt.Errorf("-dist supports -mode apt or fp32, not %q", a.mode)
	}
	switch a.codec {
	case "fp32":
		cfg.Codec = dist.FP32Codec{}
	case "8bit":
		cfg.Codec = dist.KBitCodec{Bits: 8}
	case "ternary":
		cfg.Codec = dist.NewTernaryCodec(a.seed ^ 0x7E12)
	default:
		return fmt.Errorf("unknown codec %q (want fp32, 8bit or ternary)", a.codec)
	}
	stats, err := dist.Run(cfg)
	if err != nil {
		return err
	}
	for e, acc := range stats.Accs {
		fmt.Fprintf(out, "epoch %3d  acc %.4f\n", e, acc)
	}
	fmt.Fprintf(out, "\nfinal accuracy  %.4f\n", stats.FinalAcc())
	fmt.Fprintf(out, "uplink   %d bytes (%s codec)\n", stats.UpBytes, cfg.Codec.Name())
	bcast := "fp32"
	if cfg.QuantBroadcast {
		bcast = "APT bit-packed"
	}
	fmt.Fprintf(out, "downlink %d bytes (%s broadcast)\n", stats.DownBytes, bcast)
	fmt.Fprintf(out, "rounds %d  workers %d  mean bits %.2f\n", stats.Rounds, a.workers, stats.MeanBits)
	if stats.WorkersLost > 0 || stats.Respawns > 0 || stats.StaleFolded > 0 || stats.StaleDropped > 0 {
		fmt.Fprintf(out, "faults: lost %d  respawned %d  rejoined %d  errors %d  stale folded %d / dropped %d  partial rounds %d\n",
			stats.WorkersLost, stats.Respawns, stats.Rejoins, stats.WorkerErrors,
			stats.StaleFolded, stats.StaleDropped, stats.PartialRounds)
	}
	if stats.Checkpoints > 0 {
		fmt.Fprintf(out, "checkpoints %d -> %s\n", stats.Checkpoints, a.ckptPath)
	}
	if stats.Publishes > 0 && a.publishPath != "" {
		fmt.Fprintf(out, "published version %d -> %s\n", stats.Publishes, a.publishPath)
	}
	if stats.Halted {
		fmt.Fprintf(out, "halted after %d rounds (resume with -resume)\n", stats.Rounds)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
