package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span accumulates the time and the number of calls made into one layer
// boundary. Spans are safe for concurrent use, so replicas training at
// the same time can share one.
type span struct {
	ns, n atomic.Int64
}

func (s *span) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.n.Add(1)
}

// since records the time elapsed from t0 and returns the current time, so
// consecutive calls can be chained without reading the clock twice.
func (s *span) since(t0 time.Time) time.Time {
	now := time.Now()
	s.add(now.Sub(t0))
	return now
}

func (s *span) ms() float64 { return float64(s.ns.Load()) / 1e6 }

func (s *span) meanMs() float64 {
	if n := s.n.Load(); n > 0 {
		return s.ms() / float64(n)
	}
	return 0
}

// tracer holds the named spans of one traced run, kept in memory until
// the run reports.
type tracer struct {
	mu    sync.Mutex
	spans map[string]*span
}

func newTracer() *tracer { return &tracer{spans: map[string]*span{}} }

// span returns the span called name, creating it on first use. Hot loops
// look their spans up once, outside the loop.
func (t *tracer) span(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[name]
	if !ok {
		s = &span{}
		t.spans[name] = s
	}
	return s
}

// perLayerZeros returns every per-layer metric set to 0, the value a
// traced run reports for a layer its workload does not run.
func perLayerZeros() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
