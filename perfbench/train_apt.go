package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/train"
)

// train-apt: the paper's workload. Each session trains a fresh ResNet-20
// with the APT controller (default configuration) through
// repro.New/Session.Run for a fixed sample budget; an untraced run makes
// trainSessions sessions of the same seed.

// aptSession returns a session over a fresh copy of the model, trained
// from the run's seed.
func aptSession(m *models.Model, tr, te data.Dataset, sc scale, seed uint64) (*repro.Session, error) {
	return repro.New(repro.Config{
		Model: m, Train: tr, Test: te,
		Epochs: sc.Epochs, BatchSize: batchSize,
		LR: 0.1, Milestones: aptMilestones(sc.Epochs),
		Mode: repro.ModeAPT, Seed: subSeed(seed, seedTrain),
	})
}

func aptMilestones(epochs int) []int { return []int{epochs * 2 / 3, epochs * 13 / 15} }

// sameHistory reports whether two runs' per-epoch records are identical
// bit for bit.
func sameHistory(a, b *train.History) bool {
	if len(a.Epochs) != len(b.Epochs) {
		return false
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i], b.Epochs[i]
		if math.Float64bits(x.TrainLoss) != math.Float64bits(y.TrainLoss) ||
			math.Float64bits(x.TestAcc) != math.Float64bits(y.TestAcc) ||
			math.Float64bits(x.CumEnergy) != math.Float64bits(y.CumEnergy) ||
			x.SizeBits != y.SizeBits {
			return false
		}
	}
	return true
}

// firstEpochLoss is the mean training loss over the first epoch's
// batches: the loss after a fixed number of samples. Later epochs fit the
// training set almost exactly, so their loss mostly tells seeds apart.
func firstEpochLoss(h *train.History) float64 {
	if len(h.Epochs) == 0 {
		return math.NaN()
	}
	return h.Epochs[0].TrainLoss
}

func lastEpoch(h *train.History) train.EpochStats {
	if len(h.Epochs) == 0 {
		return train.EpochStats{}
	}
	return h.Epochs[len(h.Epochs)-1]
}

func runTrainAPT(cfg runConfig) (*outcome, error) {
	sc := cfg.Scale
	o := newOutcome()
	setupS, fx, err := timeSetup(sc.SetupReps, func() (fixture, error) { return makeFixture(sc, cfg.Seed) })
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return traceTrainAPT(cfg, fx, o)
	}
	heap := newHeapPeak()
	clock := newStepClock(heap)
	var (
		steps     []float64
		rates     []float64
		epochs    []float64 // seconds
		first     *train.History
		firstPred []int
		agree     = 1.0
		sessions  int
		failed    int64
	)
	runtime.GC()
	for m := fx.model; sessions < trainSessions; m = nil {
		if m == nil {
			if m, err = buildModel(cfg.Seed); err != nil {
				return nil, err
			}
		}
		clock.reset()
		sess, err := aptSession(m, clock.trainSet(fx.train), clock.testSet(fx.test), sc, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		hist, err := sess.Run()
		if err != nil {
			return nil, err
		}
		end := time.Now()
		epochs = append(epochs, clock.epochs(end)...)
		sessions++
		rates = append(rates, float64(sc.Epochs*fx.train.Len())/end.Sub(t0).Seconds())
		ps := clock.periods(1)
		steps = append(steps, ps...)
		pred, err := predictions(m, fx.test)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstPred = hist, pred
			continue
		}
		agree = math.Min(agree, agreement(firstPred, pred))
		if !sameHistory(first, hist) {
			failed += int64(len(ps))
		}
	}
	last := lastEpoch(first)
	o.Attempted, o.Failed = int64(len(steps)), failed
	o.Checks["same_seed_sessions_identical"] = failed == 0
	o.Checks["loss_finite"] = finite(last.TrainLoss)
	o.Checks["accuracy_above_chance"] = last.TestAcc > 1.0/classes
	stepsPerEpoch := (fx.train.Len() + batchSize - 1) / batchSize
	o.Checks["one_period_per_step"] = len(steps) == sessions*sc.Epochs*stepsPerEpoch
	o.Checks["one_time_per_epoch"] = len(epochs) == sessions*sc.Epochs

	// Throughput is taken at the median epoch, so a burst of load from
	// outside the process moves it less than a total over the run would.
	epochS := median(epochs)
	_, tailMs := chunkedTail(steps)
	o.Metrics = map[string]float64{
		"samples_per_s": float64(fx.train.Len()) / epochS,
		"p50_ms":        median(steps),
		"tail_ms":       tailMs,
		"max_rps":       float64(stepsPerEpoch) / epochS,
		"fail_frac":     failBound(o.Failed, o.Attempted),
		"test_acc":      last.TestAcc,
		"train_loss":    firstEpochLoss(first),
		"energy_norm":   first.NormalizedEnergy(),
		"size_norm":     first.NormalizedSize(),
		"agree_frac":    agree,
		"heap_peak_mb":  heap.mb(),
		"setup_s":       setupS,
	}
	o.Info["step_latency"] = latencyInfo(steps)
	o.Info["sessions"] = sessions
	o.Info["session_samples_per_s"] = rates
	o.Info["sentinel_params"] = sentinelParams(first.Controller, fx.model.Params())
	return o, nil
}

// sentinelLevel is where a smoothed Gavg can only have come from folding
// the full-precision sentinel (quant.GavgFullPrecision) into the moving
// average: six orders of magnitude below the sentinel and far above any
// finite sample. The decaying trace of a sentinel stays above it for
// about 39 observations.
const sentinelLevel = quant.GavgFullPrecision / 1e6

// sentinelParams counts the parameters whose smoothed Gavg still carries
// the sentinel.
func sentinelParams(c *core.Controller, params []*nn.Param) int {
	n := 0
	for _, p := range params {
		if c.Gavg(p) >= sentinelLevel {
			n++
		}
	}
	return n
}

// traceTrainAPT alternates a traced session with an untraced
// Session.Run of the same seed, and fails unless both give the same
// history bit for bit: the traced loop below calls, in train.Run's order,
// the same public functions of each layer, timing every call from
// outside. The traced session runs first, so start-up costs fall on it
// and the overhead reads high rather than low.
func traceTrainAPT(cfg runConfig, fx fixture, o *outcome) (*outcome, error) {
	sc := cfg.Scale
	tr := newTracer()
	clock := newStepClock(newHeapPeak())
	var (
		pairs    int
		hist     *train.History
		stepWall []float64 // traced steps, ms
		plain    []float64 // untraced step periods, ms
		useful   []float64
		sentinel int
		match    = true
	)
	start := time.Now()
	for m := fx.model; pairs < 1 || time.Since(start) < cfg.Seconds; m = nil {
		if m == nil {
			var err error
			if m, err = buildModel(cfg.Seed); err != nil {
				return nil, err
			}
		}
		tsess, err := aptSession(m, fx.train, fx.test, sc, cfg.Seed)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		h, walls, uf, err := tracedAPTSession(m, tsess.Controller(), fx.train, fx.test, sc, cfg.Seed, tr)
		if err != nil {
			return nil, err
		}
		hist = h
		stepWall = append(stepWall, walls...)
		useful = append(useful, uf...)
		sentinel = sentinelParams(tsess.Controller(), m.Params())

		um, err := buildModel(cfg.Seed)
		if err != nil {
			return nil, err
		}
		clock.reset()
		sess, err := aptSession(um, clock.trainSet(fx.train), clock.testSet(fx.test), sc, cfg.Seed)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ref, err := sess.Run()
		if err != nil {
			return nil, err
		}
		plain = append(plain, clock.periods(1)...)
		match = match && sameHistory(ref, h)
		pairs++
	}
	o.Attempted = int64(len(stepWall))
	o.Checks["trace_matches_untraced"] = match

	steps := float64(len(stepWall))
	epochs := float64(pairs * sc.Epochs)
	perStep := func(name string) float64 { return tr.span(name).ms() / steps }
	m := perLayerZeros()
	accounted := 0.0
	for _, name := range []string{"data.next_ms", "nn.loss_ms", "core.observe_ms", "optim.step_ms", "energy.charge_ms"} {
		m[name] = perStep(name)
		accounted += m[name]
	}
	for _, g := range stepGroups {
		f, b := perStep("nn.fwd_ms."+g), perStep("nn.bwd_ms."+g)
		m["nn.fwd_ms."+g], m["nn.bwd_ms."+g] = f, b
		m["nn.fwd_ms"] += f
		m["nn.bwd_ms"] += b
	}
	accounted += m["nn.fwd_ms"] + m["nn.bwd_ms"]
	wallMs := mean(stepWall)
	m["train.other_ms"] = wallMs - accounted
	m["train.other_frac"] = m["train.other_ms"] / wallMs
	macs := float64(nn.TotalMACs(fx.model.Layers()))
	// Computed, not counted: 2 FLOPs per MAC forward and twice the
	// forward's work backward, over the time inside the layers.
	m["nn.gflops"] = 6 * macs * batchSize / ((m["nn.fwd_ms"] + m["nn.bwd_ms"]) * 1e6)
	m["core.adjust_ms"] = tr.span("core.adjust_ms").ms() / epochs
	m["train.eval_ms"] = tr.span("train.eval_ms").ms() / epochs
	m["quant.useful_update_frac"] = mean(useful)
	m["quant.mean_bits"] = lastEpoch(hist).MeanBits
	m["core.sentinel_params"] = float64(sentinel)
	// Median step against median step: a burst of outside load in one
	// session does not land in the overhead.
	m["trace.overhead_ms"] = median(stepWall) - median(plain)
	m["trace.overhead_frac"] = m["trace.overhead_ms"] / median(plain)
	o.Metrics = m
	o.Info["pairs"] = pairs
	o.Info["step_wall_ms"] = wallMs
	return o, nil
}

// tracedAPTSession is train.Run's loop for an APT session with default
// settings, written against the layers' public functions so each call can
// be timed. It returns the history, each step's wall time in milliseconds
// and each step's share of weight updates that did not underflow.
func tracedAPTSession(m *models.Model, ctrl *core.Controller, trainSet, testSet data.Dataset, sc scale, seed uint64, tr *tracer) (*train.History, []float64, []float64, error) {
	var (
		dataNext = tr.span("data.next_ms")
		lossSpan = tr.span("nn.loss_ms")
		observe  = tr.span("core.observe_ms")
		step     = tr.span("optim.step_ms")
		charge   = tr.span("energy.charge_ms")
		adjust   = tr.span("core.adjust_ms")
		eval     = tr.span("train.eval_ms")
	)
	layers := m.Layers()
	fwd := make([]*span, len(layers))
	bwd := make([]*span, len(layers))
	for i, l := range layers {
		fwd[i] = tr.span("nn.fwd_ms." + layerGroup(l.Name()))
		bwd[i] = tr.span("nn.bwd_ms." + layerGroup(l.Name()))
	}

	em := energy.DefaultModel()
	rng := tensor.NewRNG(subSeed(seed, seedTrain) ^ 0xA9F1)
	loader, err := data.NewLoader(trainSet, batchSize, rng.Split())
	if err != nil {
		return nil, nil, nil, err
	}
	params := m.Params()
	sched := optim.StepSchedule{Base: 0.1, Milestones: aptMilestones(sc.Epochs), Factor: 0.1}
	opt := optim.NewSGD(sched.LR(0), 0.9, 1e-4)
	meter := energy.NewMeter(em)
	loss := nn.SoftmaxCrossEntropy{}
	hist := &train.History{Controller: ctrl, FP32SizeBits: energy.FP32SizeBits(params)}
	hist.FP32Energy = em.FP32Reference(energy.Snapshot(layers), int64(sc.Epochs)*int64(trainSet.Len()))

	var walls, useful []float64
	for epoch := 0; epoch < sc.Epochs; epoch++ {
		lr := sched.LR(epoch)
		opt.SetLR(lr)
		var lossSum float64
		var batches int
		for {
			t0 := time.Now()
			x, labels, ok := loader.Next()
			if !ok {
				break
			}
			t := dataNext.since(t0)
			for i, l := range layers {
				if x, err = l.Forward(x, true); err != nil {
					return nil, nil, nil, fmt.Errorf("forward %s: %w", l.Name(), err)
				}
				t = fwd[i].since(t)
			}
			l, d, err := loss.Forward(x, labels)
			if err != nil {
				return nil, nil, nil, err
			}
			t = lossSpan.since(t)
			lossSum += l
			for i := len(layers) - 1; i >= 0; i-- {
				if d, err = layers[i].Backward(d); err != nil {
					return nil, nil, nil, fmt.Errorf("backward %s: %w", layers[i].Name(), err)
				}
				t = bwd[i].since(t)
			}
			ctrl.ObserveBatch()
			t = observe.since(t)
			if err := opt.Step(params); err != nil {
				return nil, nil, nil, err
			}
			t = step.since(t)
			meter.Charge(energy.Snapshot(layers), len(labels))
			charge.since(t)
			batches++
			uf := updateUnderflow(params)
			useful = append(useful, 1-uf)
			walls = append(walls, float64(time.Since(t0))/1e6)
		}
		t0 := time.Now()
		if _, err := ctrl.AdjustEpoch(); err != nil {
			return nil, nil, nil, err
		}
		t := adjust.since(t0)
		acc, err := train.Evaluate(m, testSet, batchSize)
		if err != nil {
			return nil, nil, nil, err
		}
		eval.since(t)
		hist.Epochs = append(hist.Epochs, train.EpochStats{
			Epoch: epoch, TrainLoss: lossSum / float64(max(batches, 1)), TestAcc: acc,
			CumEnergy: meter.Total(), SizeBits: energy.ModelSizeBits(params),
			MeanBits: meanBits(params), LR: lr,
		})
	}
	return hist, walls, useful, nil
}

// updateUnderflow is the share of weight elements whose last update
// underflowed the quantization grid.
func updateUnderflow(params []*nn.Param) float64 {
	var uf, n float64
	for _, p := range params {
		uf += float64(p.Underflowed)
		n += float64(p.Value.Len())
	}
	if n == 0 {
		return 0
	}
	return uf / n
}

// meanBits is the parameter-weighted mean bitwidth.
func meanBits(params []*nn.Param) float64 {
	var bits, n float64
	for _, p := range params {
		w := float64(p.Value.Len())
		bits += w * float64(p.Bits())
		n += w
	}
	if n == 0 {
		return 0
	}
	return bits / n
}
