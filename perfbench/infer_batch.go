package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// infer-batch: one caller in a closed loop running int8 Engine.Forward at
// batch 64 over a pool of test batches, on the ResNet-20 that train-apt's
// session trains, compiled by infer.Compile.

const calibSamples = 64

// deployment is what the inference workloads serve: the trained float
// model and its compiled int8 engine.
type deployment struct {
	fx       fixture
	engine   *infer.Engine
	compileS float64
	// trainLoss is the first epoch's mean training loss in the session
	// that trained the model.
	trainLoss float64
}

// trainedWeights trains a fresh model with train-apt's session and
// captures its state, the model the inference workloads deploy, and its
// first epoch's mean training loss. It is prepared once per run and is not
// part of set-up time.
func trainedWeights(sc scale, seed uint64, fx fixture) (*nn.NetState, float64, error) {
	m, err := buildModel(seed)
	if err != nil {
		return nil, 0, err
	}
	sess, err := aptSession(m, fx.train, fx.test, sc, seed)
	if err != nil {
		return nil, 0, err
	}
	hist, err := sess.Run()
	if err != nil {
		return nil, 0, err
	}
	return nn.CaptureState(m.Layers()), firstEpochLoss(hist), nil
}

// deploy is the inference workloads' set-up: generate the data, build the
// model, load the trained weights and compile the engine.
func deploy(sc scale, seed uint64, weights *nn.NetState) (deployment, error) {
	fx, err := makeFixture(sc, seed)
	if err != nil {
		return deployment{}, err
	}
	if err := nn.RestoreState(fx.model.Layers(), weights); err != nil {
		return deployment{}, err
	}
	calib, _, err := data.PackBatch(fx.train, calibSamples)
	if err != nil {
		return deployment{}, err
	}
	t0 := time.Now()
	eng, err := infer.Compile(fx.model, infer.Config{Calibration: calib})
	if err != nil {
		return deployment{}, err
	}
	return deployment{fx: fx, engine: eng, compileS: time.Since(t0).Seconds()}, nil
}

// prepareDeployment trains the served model once and then times the
// set-up sc.SetupReps times; it returns the median set-up time, the last
// deployment and the median compile time.
func prepareDeployment(sc scale, seed uint64, extra func(deployment) error) (setupS float64, d deployment, compileS float64, err error) {
	fx, err := makeFixture(sc, seed)
	if err != nil {
		return 0, d, 0, err
	}
	weights, loss, err := trainedWeights(sc, seed, fx)
	if err != nil {
		return 0, d, 0, err
	}
	var compiles []float64
	setupS, d, err = timeSetup(sc.SetupReps, func() (deployment, error) {
		d, err := deploy(sc, seed, weights)
		if err != nil {
			return d, err
		}
		compiles = append(compiles, d.compileS)
		if extra != nil {
			err = extra(d)
		}
		return d, err
	})
	d.trainLoss = loss
	return setupS, d, median(compiles), err
}

// int8Energy is the cost model's energy of an int8 MAC relative to an fp32
// one; every compiled layer runs at 8 bits.
func int8Energy() float64 {
	em := energy.DefaultModel()
	return em.MACCost(8) / em.MACCost(32)
}

// deployedSize is the engine's parameter storage relative to the float
// model's fp32 parameters.
func deployedSize(d deployment) float64 {
	return float64(d.engine.SizeBytes()*8) / float64(energy.FP32SizeBits(d.fx.model.Params()))
}

// batchPool packs the first n test samples into batches.
type batchPool struct {
	x      []*tensor.Tensor
	labels [][]int
	ref    []*tensor.Tensor // int8 logits of each batch
}

func newBatchPool(d deployment, n int) (*batchPool, error) {
	all, labels, err := data.PackBatch(d.fx.test, n)
	if err != nil {
		return nil, err
	}
	per := all.Len() / n
	p := &batchPool{}
	for i := 0; i+batchSize <= n; i += batchSize {
		x, err := tensor.FromSlice(all.Data()[i*per:(i+batchSize)*per], batchSize, 3, inputSize, inputSize)
		if err != nil {
			return nil, err
		}
		ref, err := d.engine.Forward(x)
		if err != nil {
			return nil, err
		}
		p.x = append(p.x, x)
		p.labels = append(p.labels, labels[i:i+batchSize])
		p.ref = append(p.ref, ref)
	}
	if len(p.x) == 0 {
		return nil, fmt.Errorf("pool of %d samples holds no batch of %d", n, batchSize)
	}
	return p, nil
}

func sameBits(a, b *tensor.Tensor) bool {
	x, y := a.Data(), b.Data()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// quality compares the engine's classes on the pool with the labels and
// with the float model's classes.
func (p *batchPool) quality(m *models.Model) (acc, agree float64, err error) {
	var correct, same, n int
	for b, x := range p.x {
		fl, err := m.Net.Forward(x, false)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < x.Dim(0); i++ {
			c := p.ref[b].ArgMaxRow(i)
			if c == p.labels[b][i] {
				correct++
			}
			if c == fl.ArgMaxRow(i) {
				same++
			}
			n++
		}
	}
	return float64(correct) / float64(n), float64(same) / float64(n), nil
}

// forwardLoop runs Forward over the pool for d and returns per-call
// latencies in milliseconds, each call's end as an offset from the start,
// and the number of calls whose logits differ from the pool's reference.
func forwardLoop(eng *infer.Engine, p *batchPool, d time.Duration, heap *heapPeak) ([]float64, []time.Duration, int64, error) {
	var (
		lat  []float64
		ends []time.Duration
		bad  int64
	)
	start := time.Now()
	for i := 0; len(lat) < 2 || time.Since(start) < d; i++ {
		b := i % len(p.x)
		t0 := time.Now()
		out, err := eng.Forward(p.x[b])
		t1 := time.Now()
		lat = append(lat, float64(t1.Sub(t0))/1e6)
		ends = append(ends, t1.Sub(start))
		if err != nil {
			return nil, nil, 0, err
		}
		if !sameBits(out, p.ref[b]) {
			bad++
		}
		if heap != nil {
			heap.sample()
		}
	}
	return lat, ends, bad, nil
}

// agreeFloor is the lowest int8-vs-float class agreement infer-batch
// accepts. Over 24 seeds agreement measured 0.996 to 1.0, and 0.84 for a
// model that trained to 67% accuracy on a hard draw of the data; an int8
// path that stopped tracking the float model would sit near chance.
const agreeFloor = 0.5

func runInferBatch(cfg runConfig) (*outcome, error) {
	sc := cfg.Scale
	o := newOutcome()
	setupS, d, compileS, err := prepareDeployment(sc, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	pool, err := newBatchPool(d, sc.Pool)
	if err != nil {
		return nil, err
	}
	acc, agree, err := pool.quality(d.fx.model)
	if err != nil {
		return nil, err
	}
	o.Checks["agreement_at_least_floor"] = agree >= agreeFloor
	if cfg.Trace {
		return traceInferBatch(cfg, d, pool, compileS, o)
	}
	heap := newHeapPeak()
	runtime.GC()
	lat, ends, bad, err := forwardLoop(d.engine, pool, cfg.Seconds, heap)
	if err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = int64(len(lat)), bad
	o.Checks["repeated_forward_identical"] = bad == 0

	// Throughput is the median over one-second windows, so a burst of load
	// from outside the process moves it less than a total over the run.
	calls := windowRate(ends, time.Second)
	_, tailMs := chunkedTail(lat)
	o.Metrics = map[string]float64{
		"samples_per_s": calls * batchSize,
		"p50_ms":        median(lat),
		"tail_ms":       tailMs,
		"max_rps":       calls,
		"fail_frac":     failBound(o.Failed, o.Attempted),
		"test_acc":      acc,
		"train_loss":    d.trainLoss,
		"energy_norm":   int8Energy(),
		"size_norm":     deployedSize(d),
		"agree_frac":    agree,
		"heap_peak_mb":  heap.mb(),
		"setup_s":       setupS,
	}
	o.Info["forward_latency"] = latencyInfo(lat)
	o.Info["compile_s"] = compileS
	return o, nil
}

// traceInferBatch runs the closed loop traced, counting allocations, for
// half the time and then untraced for the other half, and converts the
// traced calls into per-sample time and computed throughput. The traced
// half runs first, so the overhead reads high rather than low.
func traceInferBatch(cfg runConfig, d deployment, pool *batchPool, compileS float64, o *outcome) (*outcome, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lat, _, bad1, err := forwardLoop(d.engine, pool, cfg.Seconds/2, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	plain, _, bad2, err := forwardLoop(d.engine, pool, cfg.Seconds/2, nil)
	if err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = int64(len(plain)+len(lat)), bad1+bad2
	o.Checks["repeated_forward_identical"] = o.Failed == 0
	implicit := 0
	for _, l := range d.engine.ConvLowerings() {
		if l.Mode == "implicit" {
			implicit++
		}
	}
	perCall := median(lat)
	m := perLayerZeros()
	m["infer.compile_s"] = compileS
	m["infer.ns_per_sample"] = perCall * 1e6 / batchSize
	// Computed, not counted: 2 integer operations per MAC.
	m["infer.gops"] = 2 * float64(nn.TotalMACs(d.fx.model.Layers())) * batchSize / (perCall * 1e6)
	m["infer.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(len(lat))
	m["infer.implicit_layers"] = float64(implicit)
	m["trace.overhead_ms"] = perCall - median(plain)
	m["trace.overhead_frac"] = m["trace.overhead_ms"] / median(plain)
	o.Metrics = m
	o.Info["conv_lowerings"] = d.engine.ConvLowerings()
	return o, nil
}
