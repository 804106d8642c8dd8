package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as far as the self-test reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestDefinitionsMatchBenchmarkFile checks that the workloads and metrics
// this program reports are the ones BENCHMARK.json declares, with the
// same units.
func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, ours)
		}
	}
	sameDefs(t, "end_to_end", bf.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", bf.PerLayer, perLayer)
}

func sameDefs(t *testing.T, list string, file, ours []metricDef) {
	t.Helper()
	if len(file) != len(ours) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", list, len(file), len(ours))
	}
	for i := range file {
		if file[i] != ours[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", list, i, file[i], ours[i])
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size
// and fails if a correctness check fails or a metric is missing.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			o, err := run(runConfig{Seed: 7, Seconds: time.Second, Trace: traced, Scale: tinyScale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			r, err := finish(o, defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v (checks %v)", name, traced, err, o.Checks)
			}
			if !r.Correct || len(o.Checks) == 0 {
				t.Errorf("%s trace=%v: correct=%v with checks %v", name, traced, r.Correct, o.Checks)
			}
			for _, d := range defs {
				if got := r.Metrics[d.Name]; got.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, want %q", name, traced, d.Name, got.Unit, d.Unit)
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if pct, _ := tail(xs); pct != 99 {
		t.Errorf("1000 samples: tail percentile %v, want 99", pct)
	}
	if pct, _ := tail(xs[:120]); pct != 90 {
		t.Errorf("120 samples: tail percentile %v, want 90", pct)
	}
	if pct, _ := tail(xs[:100]); pct != 90 {
		t.Errorf("100 samples: tail percentile %v, want 90", pct)
	}
	if pct, _ := tail(xs[:99]); pct != 50 {
		t.Errorf("99 samples: tail percentile %v, want 50", pct)
	}
}

func TestFailBound(t *testing.T) {
	if b := failBound(0, 1000); b <= 0 || b > 0.003 {
		t.Errorf("failBound(0, 1000) = %v, want in (0, 0.003]", b)
	}
	if failBound(0, 10000) >= failBound(0, 1000) {
		t.Error("failBound does not fall as more operations succeed")
	}
	if b := failBound(50, 1000); b <= 0.05 {
		t.Errorf("failBound(50, 1000) = %v, want above the raw share 0.05", b)
	}
}

func TestChunkedTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	// One stall in the first hundred: the whole-sample 99th percentile
	// reads it, the median of per-hundred 90th percentiles does not.
	for i := 0; i < 30; i++ {
		xs[i] = 100
	}
	if _, v := tail(xs); v != 100 {
		t.Errorf("tail = %v, want 100", v)
	}
	if pct, v := chunkedTail(xs); pct != 90 || v != 1 {
		t.Errorf("chunkedTail = p%v %v, want p90 1", pct, v)
	}
}

func TestWindowRate(t *testing.T) {
	// 100 events per second for 3 s, with the second second stalled.
	var stamps []time.Duration
	for i := 0; i < 300; i++ {
		if i >= 100 && i < 200 {
			continue
		}
		stamps = append(stamps, time.Duration(i)*10*time.Millisecond)
	}
	if r := windowRate(stamps, time.Second); r < 99 || r > 101 {
		t.Errorf("windowRate = %v, want 100", r)
	}
}
