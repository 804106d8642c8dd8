package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentiles are the candidates for a tail latency, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tail returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, and its value. With fewer than twenty samples it
// falls back to the median.
func tail(xs []float64) (pct, value float64) {
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		// The tolerance absorbs rounding: 100 samples have exactly ten
		// beyond the 90th percentile.
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 {
			pct = p
		}
	}
	return pct, quantile(xs, pct/100)
}

// chunkedTail is tail for long samples: it splits xs, in arrival order,
// into runs of 100, where the 90th percentile has ten samples beyond it,
// and returns the median of their 90th percentiles, so a stall of the
// machine decides the runs it falls in rather than the whole sample.
// Shorter samples fall back to tail.
func chunkedTail(xs []float64) (pct, value float64) {
	const chunk = 100
	if len(xs) < 2*chunk {
		return tail(xs)
	}
	var vs []float64
	for i := 0; i+chunk <= len(xs); i += chunk {
		_, v := tail(xs[i : i+chunk])
		vs = append(vs, v)
	}
	return 90, median(vs)
}

// windowRate is the median, over the complete windows of length w after
// the start, of the rate of events within each window; stamps are the
// events' offsets from the start, in order. Without two complete windows it
// is the overall rate.
func windowRate(stamps []time.Duration, w time.Duration) float64 {
	if len(stamps) < 2 {
		return 0
	}
	n := int(stamps[len(stamps)-1] / w)
	if n < 2 {
		return float64(len(stamps)-1) / (stamps[len(stamps)-1] - stamps[0]).Seconds()
	}
	var rates []float64
	lo := 0
	for k := 0; k < n; k++ {
		hi := lo
		for hi < len(stamps) && stamps[hi] < time.Duration(k+1)*w {
			hi++
		}
		if hi-lo >= 2 {
			rates = append(rates, float64(hi-lo-1)/(stamps[hi-1]-stamps[lo]).Seconds())
		}
		lo = hi
	}
	return median(rates)
}

// latencyInfo records the sample behind p50_ms and tail_ms.
func latencyInfo(xs []float64) map[string]any {
	pct, _ := chunkedTail(xs)
	return map[string]any{"n": len(xs), "tail_percentile": pct}
}

// failBound is the one-sided 95% Wilson upper bound on the failure share
// of failed out of attempted operations. Unlike the raw share it is never
// 0, and it falls as a run proves more operations correct.
func failBound(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 1
	}
	const z = 1.6449
	n := float64(attempted)
	p := float64(failed) / n
	z2 := z * z
	return (p + z2/(2*n) + z*math.Sqrt(p*(1-p)/n+z2/(4*n*n))) / (1 + z2/n)
}

// heapPeak samples the Go heap in use at operation boundaries and keeps
// the largest sample. It is not safe for concurrent use.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// timeSetup runs setup reps times and returns the median wall time in
// seconds and the last repetition's value.
func timeSetup[T any](reps int, setup func() (T, error)) (float64, T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return median(times), last, nil
}

// machineStamp describes where and how the run was measured.
func machineStamp(cfg runConfig) map[string]any {
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
	}
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"simd_active":   tensor.SIMDActive(),
		"simd_features": tensor.SIMDFeatures(),
		"go":            goVersion,
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds.Seconds(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
