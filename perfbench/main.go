// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the workload's correctness verdict, the
// number of operations attempted and failed, and its metrics: every
// end-to-end metric for an untraced run (--trace 0), every per-layer
// metric for a traced run (--trace 1). The line before it is a JSON stamp
// of the machine and the run's details. Metric names, units and
// directions are listed in ../BENCHMARK.json and defined per workload in
// README.md.
//
//	go -C perfbench run . --workload train-apt --seed 1 --seconds 10 --trace 0
//
// The process exits 1 without printing a result if any correctness check
// fails or a metric is missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"max_rps", "1/s"},
	{"fail_frac", "frac"},
	{"test_acc", "frac"},
	{"train_loss", "nats"},
	{"energy_norm", "ratio"},
	{"size_norm", "ratio"},
	{"agree_frac", "frac"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// stepGroups are ResNet-20's top-level layers, the unit of the per-layer
// training-step split.
var stepGroups = []string{
	"stem", "s1b0", "s1b1", "s1b2", "s2b0", "s2b1", "s2b2",
	"s3b0", "s3b1", "s3b2", "gap", "fc",
}

// perLayer lists the per-layer metrics every traced run reports; a layer
// the workload does not run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"data.next_ms", "ms"},
		{"nn.fwd_ms", "ms"},
		{"nn.bwd_ms", "ms"},
	}
	for _, g := range stepGroups {
		defs = append(defs, metricDef{"nn.fwd_ms." + g, "ms"})
	}
	for _, g := range stepGroups {
		defs = append(defs, metricDef{"nn.bwd_ms." + g, "ms"})
	}
	return append(defs, []metricDef{
		{"nn.loss_ms", "ms"},
		{"nn.gflops", "GFLOP/s"},
		{"core.observe_ms", "ms"},
		{"optim.step_ms", "ms"},
		{"energy.charge_ms", "ms"},
		{"core.adjust_ms", "ms"},
		{"train.eval_ms", "ms"},
		{"train.other_ms", "ms"},
		{"train.other_frac", "frac"},
		{"quant.useful_update_frac", "frac"},
		{"quant.mean_bits", "bits"},
		{"core.sentinel_params", "count"},
		{"dist.encode_ms", "ms"},
		{"dist.up_bytes_per_round", "bytes"},
		{"dist.down_bytes_per_round", "bytes"},
		{"dist.rounds", "count"},
		{"dist.replica_build_ms", "ms"},
		{"infer.compile_s", "s"},
		{"infer.ns_per_sample", "ns"},
		{"infer.gops", "GOP/s"},
		{"infer.allocs_per_op", "count"},
		{"infer.implicit_layers", "count"},
		{"serve.engine_ms", "ms"},
		{"serve.batch_mean", "count"},
		{"serve.batch_p99", "count"},
		{"serve.engine_busy_frac", "frac"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.http_self_ms", "ms"},
		{"serve.rejected_frac", "frac"},
		{"serve.dropped_frac", "frac"},
		{"gen.lag_ms", "ms"},
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_frac", "frac"},
	}...)
}()

// scale sizes a workload: full for measurement, tiny for the self-test.
type scale struct {
	Train, Test int     // SynthCIFAR split sizes
	Epochs      int     // epochs per training session
	SetupReps   int     // set-up repetitions; setup_s is their median
	Pool        int     // distinct inputs the inference workloads cycle through
	RefRate     float64 // serve-open's open-loop rate, in requests per second
}

var (
	fullScale = scale{Train: 1024, Test: 512, Epochs: 6, SetupReps: 3, Pool: 512,
		RefRate: 500}
	tinyScale = scale{Train: 512, Test: 128, Epochs: 2, SetupReps: 1, Pool: 128,
		RefRate: 100}
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    uint64
	Seconds time.Duration
	Trace   bool
	Scale   scale
}

// outcome is what a workload hands back for printing.
type outcome struct {
	Attempted, Failed int64
	// Checks maps each correctness check to its verdict.
	Checks  map[string]bool
	Metrics map[string]float64
	// Info carries details that are not metrics (percentile chosen for
	// tail_ms and its sample count, per-rung serving figures, ...).
	Info map[string]any
}

func newOutcome() *outcome {
	return &outcome{Checks: map[string]bool{}, Metrics: map[string]float64{}, Info: map[string]any{}}
}

// workloads maps names to implementations.
var workloads = map[string]func(runConfig) (*outcome, error){
	"train-apt":   runTrainAPT,
	"train-dist":  runTrainDist,
	"infer-batch": runInferBatch,
	"serve-open":  runServeOpen,
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish turns an outcome into the printed result; it fails when a check
// failed or a metric of defs is missing or not finite.
func finish(o *outcome, defs []metricDef) (*result, error) {
	var bad []string
	for name, ok := range o.Checks {
		if !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("correctness checks failed: %v", bad)
	}
	if o.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	r := &result{Correct: true, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok || !finite(v) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: train-apt, train-dist, infer-batch or serve-open")
		seed    = flag.Uint64("seed", 1, "seed from which every input is generated")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <train-apt|train-dist|infer-batch|serve-open> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1, Scale: fullScale}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	r, err := finish(o, defs)
	stamp := map[string]any{"workload": *name, "trace": *trace, "stamp": machineStamp(cfg), "checks": o.Checks, "info": o.Info}
	line, _ := json.Marshal(stamp)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, _ = json.Marshal(r)
	fmt.Println(string(line))
}
