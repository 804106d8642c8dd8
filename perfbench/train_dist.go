package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// train-dist: the concurrent parameter-server trainer with two workers,
// APT on the server, bit-packed weight broadcast, an 8-bit gradient codec
// and the strict barrier, which makes a run a function of its seed. An
// untraced run makes trainSessions sessions of the same seed.

const (
	distWorkers = 2
	distShard   = 32 // samples per worker per round
)

func distConfig(fx fixture, sc scale, seed uint64, build func() (*models.Model, error), codec dist.GradCodec) dist.Config {
	apt := core.DefaultConfig()
	apt.Interval = 1 // observe every round's averaged gradient
	return dist.Config{
		Workers: distWorkers, Build: build, Train: fx.train, Test: fx.test,
		BatchSize: distShard, Epochs: sc.Epochs, LR: 0.1, Momentum: 0.9,
		Codec: codec, Seed: subSeed(seed, seedTrain), Concurrent: true,
		APT: &apt, QuantBroadcast: true,
	}
}

// finalModel rebuilds the model a run ended with.
func finalModel(seed uint64, st *dist.Stats) (*models.Model, error) {
	m, err := buildModel(seed)
	if err != nil {
		return nil, err
	}
	if err := nn.RestoreState(m.Layers(), st.Final); err != nil {
		return nil, err
	}
	return m, nil
}

func sameAccs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fp32Traffic is what the run's rounds would have moved with fp32
// gradients up and fp32 weights down.
func fp32Traffic(m *models.Model, rounds int) float64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(p.Value.Len())
	}
	return float64(rounds) * distWorkers * 2 * 4 * float64(n)
}

func runTrainDist(cfg runConfig) (*outcome, error) {
	sc := cfg.Scale
	o := newOutcome()
	setupS, fx, err := timeSetup(sc.SetupReps, func() (fixture, error) { return makeFixture(sc, cfg.Seed) })
	if err != nil {
		return nil, err
	}
	build := func() (*models.Model, error) { return buildModel(cfg.Seed) }
	if cfg.Trace {
		return traceTrainDist(cfg, fx, build, o)
	}
	heap := newHeapPeak()
	clock := newStepClock(heap)
	var (
		rounds    []float64
		rates     []float64
		epochs    []float64 // seconds
		first     *dist.Stats
		firstPred []int
		agree     = 1.0
		sessions  int
		failed    int64
	)
	runtime.GC()
	for sessions < trainSessions {
		clock.reset()
		dc := distConfig(fx, sc, cfg.Seed, build, dist.KBitCodec{Bits: 8})
		dc.Train, dc.Test = clock.trainSet(fx.train), clock.testSet(fx.test)
		t0 := time.Now()
		st, err := dist.Run(dc)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		epochs = append(epochs, clock.epochs(end)...)
		rates = append(rates, float64(sc.Epochs*fx.train.Len())/end.Sub(t0).Seconds())
		sessions++
		ps := clock.periods(distWorkers)
		rounds = append(rounds, ps...)
		m, err := finalModel(cfg.Seed, st)
		if err != nil {
			return nil, err
		}
		pred, err := predictions(m, fx.test)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstPred = st, pred
			o.Metrics["energy_norm"] = float64(st.UpBytes+st.DownBytes) / fp32Traffic(m, st.Rounds)
			o.Checks["one_period_per_round"] = len(ps) == st.Rounds
			continue
		}
		agree = math.Min(agree, agreement(firstPred, pred))
		if !sameAccs(first.Accs, st.Accs) {
			failed += int64(len(ps))
		}
	}
	loss, err := distFirstEpochLoss(fx, sc, cfg.Seed, build)
	if err != nil {
		return nil, err
	}
	o.Metrics["train_loss"] = loss
	o.Attempted, o.Failed = int64(len(rounds)), failed
	o.Checks["same_seed_sessions_identical"] = failed == 0
	o.Checks["one_time_per_epoch"] = len(epochs) == sessions*sc.Epochs
	o.Checks["accuracy_above_chance"] = first.FinalAcc() > 1.0/classes
	o.Checks["loss_finite"] = finite(o.Metrics["train_loss"])

	_, tailMs := chunkedTail(rounds)
	// Throughput is taken at the median epoch, so a burst of load from
	// outside the process moves it less than a total over the run would.
	epochS := median(epochs)
	o.Metrics["samples_per_s"] = float64(fx.train.Len()) / epochS
	o.Metrics["p50_ms"] = median(rounds)
	o.Metrics["tail_ms"] = tailMs
	o.Metrics["max_rps"] = float64(first.Rounds) / float64(sc.Epochs) / epochS
	o.Metrics["fail_frac"] = failBound(o.Failed, o.Attempted)
	o.Metrics["test_acc"] = first.FinalAcc()
	o.Metrics["size_norm"] = first.MeanBits / 32
	o.Metrics["agree_frac"] = agree
	o.Metrics["heap_peak_mb"] = heap.mb()
	o.Metrics["setup_s"] = setupS
	o.Info["round_latency"] = latencyInfo(rounds)
	o.Info["sessions"] = sessions
	o.Info["session_samples_per_s"] = rates
	o.Info["rounds_per_session"] = first.Rounds
	return o, nil
}

// distFirstEpochLoss is the training-set cross-entropy of the model after
// the session's first epoch, computed as a training step computes it
// (batch-norm on batch statistics). dist.Stats carries no loss, and the
// final model fits the training set almost exactly, so its loss says
// little; after one epoch the running batch-norm statistics are still too
// far off for an evaluation-mode loss to be steady.
func distFirstEpochLoss(fx fixture, sc scale, seed uint64, build func() (*models.Model, error)) (float64, error) {
	one := sc
	one.Epochs = 1
	st, err := dist.Run(distConfig(fx, one, seed, build, dist.KBitCodec{Bits: 8}))
	if err != nil {
		return 0, err
	}
	m, err := finalModel(seed, st)
	if err != nil {
		return 0, err
	}
	return datasetLoss(m, fx.train)
}

// timedCodec times every Encode call of the codec it wraps; the server
// runs them one at a time in its ingest path.
type timedCodec struct {
	dist.GradCodec
	s *span
}

func (c timedCodec) Encode(g *tensor.Tensor) int64 {
	t0 := time.Now()
	n := c.GradCodec.Encode(g)
	c.s.since(t0)
	return n
}

// traceTrainDist alternates a session whose codec and Build callback
// are timed with an untraced one, and fails unless both reach the same
// accuracies and byte counts. Both read their data through a step clock,
// so the overhead compares median rounds. The traced session runs first,
// so start-up costs fall on it and the overhead reads high rather than
// low.
func traceTrainDist(cfg runConfig, fx fixture, build func() (*models.Model, error), o *outcome) (*outcome, error) {
	sc := cfg.Scale
	tr := newTracer()
	encode, buildSpan := tr.span("dist.encode_ms"), tr.span("dist.replica_build_ms")
	timedBuild := func() (*models.Model, error) {
		t0 := time.Now()
		m, err := build()
		buildSpan.since(t0)
		return m, err
	}
	clock := newStepClock(newHeapPeak())
	session := func(build func() (*models.Model, error), codec dist.GradCodec) (*dist.Stats, []float64, error) {
		clock.reset()
		dc := distConfig(fx, sc, cfg.Seed, build, codec)
		dc.Train, dc.Test = clock.trainSet(fx.train), clock.testSet(fx.test)
		runtime.GC()
		st, err := dist.Run(dc)
		return st, clock.periods(distWorkers), err
	}
	var (
		pairs, rounds int
		up, down      int64
		last          *dist.Stats
		traced, plain []float64 // round periods, ms
		match         = true
	)
	start := time.Now()
	for pairs < 1 || time.Since(start) < cfg.Seconds {
		st, tp, err := session(timedBuild, timedCodec{dist.KBitCodec{Bits: 8}, encode})
		if err != nil {
			return nil, err
		}
		ref, up0, err := session(build, dist.KBitCodec{Bits: 8})
		if err != nil {
			return nil, err
		}
		traced, plain = append(traced, tp...), append(plain, up0...)
		match = match && sameAccs(ref.Accs, st.Accs) && ref.UpBytes == st.UpBytes && ref.DownBytes == st.DownBytes
		rounds += st.Rounds
		up += st.UpBytes
		down += st.DownBytes
		last = st
		pairs++
	}
	if rounds == 0 {
		return nil, fmt.Errorf("no parameter-server round ran")
	}
	o.Attempted = int64(rounds)
	o.Checks["trace_matches_untraced"] = match
	m := perLayerZeros()
	m["dist.encode_ms"] = encode.ms() / float64(rounds)
	m["dist.up_bytes_per_round"] = float64(up) / float64(rounds)
	m["dist.down_bytes_per_round"] = float64(down) / float64(rounds)
	m["dist.rounds"] = float64(rounds) / float64(pairs)
	m["dist.replica_build_ms"] = buildSpan.meanMs()
	m["quant.mean_bits"] = last.MeanBits
	m["trace.overhead_ms"] = median(traced) - median(plain)
	m["trace.overhead_frac"] = m["trace.overhead_ms"] / median(plain)
	o.Metrics = m
	o.Info["pairs"] = pairs
	return o, nil
}
