package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serve-open: serve.Server's HTTP handler, called in process with a
// recorder (no sockets). 90% of requests carry one sample and 10% carry
// eight; all carry a deadline. The first half of a run is an open loop of
// Poisson arrivals at the reference rate, timed from each request's
// intended send time; the second half is a closed loop of callers that
// each keep one request in flight, which measures the highest rate the
// server sustains.

const (
	multiShare = 0.1 // share of requests carrying multiSize samples
	multiSize  = 8
	deadlineMs = 200
	// satClients is how many callers the closed loop runs. With at most
	// multiSize samples each in flight they never overflow the server's
	// default queue of 4 × MaxBatch = 128 samples, so a refusal there is
	// a failure, not load shedding.
	satClients = 16
)

// servePool holds the distinct samples requests are drawn from, their
// classes from Engine.Classify run on each sample alone, and the request
// bodies built from them.
type servePool struct {
	samples [][]float32
	labels  []int
	alone   []int
	key     map[uint64]int // sample content hash -> pool index
	single  [][]byte       // one body per pool sample
	multi   []multiBody
}

type multiBody struct {
	body []byte
	idx  []int
}

func sampleKey(x []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h ^= uint64(math.Float32bits(v))
		h *= 1099511628211
	}
	return h
}

func newServePool(d deployment, n int, seed uint64) (*servePool, error) {
	p := &servePool{key: map[uint64]int{}}
	for i := 0; i < n; i++ {
		img, label := d.fx.test.Sample(i % d.fx.test.Len())
		x := append([]float32(nil), img.Data()...)
		t, err := tensor.FromSlice(x, 1, 3, inputSize, inputSize)
		if err != nil {
			return nil, err
		}
		c, err := d.engine.Classify(t)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"input": x, "deadline_ms": deadlineMs})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, x)
		p.labels = append(p.labels, label)
		p.alone = append(p.alone, c[0])
		p.key[sampleKey(x)] = i
		p.single = append(p.single, body)
	}
	rng := rand.New(rand.NewPCG(subSeed(seed, seedTraffic), 1))
	for b := 0; b < n/multiSize; b++ {
		mb := multiBody{}
		var inputs [][]float32
		for j := 0; j < multiSize; j++ {
			i := rng.IntN(n)
			mb.idx = append(mb.idx, i)
			inputs = append(inputs, p.samples[i])
		}
		body, err := json.Marshal(map[string]any{"inputs": inputs, "deadline_ms": deadlineMs})
		if err != nil {
			return nil, err
		}
		mb.body = body
		p.multi = append(p.multi, mb)
	}
	return p, nil
}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the open loop's start
	body []byte
	idx  []int
}

// draw picks one request: a multi-sample body with probability
// multiShare, a single-sample body otherwise.
func (p *servePool) draw(rng *rand.Rand) arrival {
	if rng.Float64() < multiShare {
		mb := p.multi[rng.IntN(len(p.multi))]
		return arrival{body: mb.body, idx: mb.idx}
	}
	i := rng.IntN(len(p.samples))
	return arrival{body: p.single[i], idx: []int{i}}
}

// schedule draws Poisson arrivals at rate per second for d.
func (p *servePool) schedule(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		a := p.draw(rng)
		a.due = t
		out = append(out, a)
	}
}

// reqResult is one request's outcome.
type reqResult struct {
	status  int
	latency float64 // ms from the intended send time; failures count as the deadline at least
	lag     float64 // ms the generator sent it late
	wrong   int     // samples whose class differs from Engine.Classify alone
	correct int     // samples whose class equals the label
	n       int
}

// openRun is the outcome of an open loop at one rate.
type openRun struct {
	Rate      float64 `json:"rate"`
	Requests  int     `json:"requests"`
	Samples   int     `json:"samples"`
	Failed    int     `json:"failed"`
	Wrong     int     `json:"wrong"`
	P50Ms     float64 `json:"p50_ms"`
	TailMs    float64 `json:"tail_ms"`
	TailPct   float64 `json:"tail_percentile"`
	LagMs     float64 `json:"lag_ms"`
	latencies []float64
	served    int // samples answered with 200
	correct   int
	wall      time.Duration
}

// openLoop sends arrivals into h on schedule and waits for every reply.
// tr, when set, attributes each request to the engine calls that served
// it.
func openLoop(h http.Handler, pool *servePool, arr []arrival, rate float64, heap *heapPeak, tr *serveTrace) *openRun {
	res := make([]reqResult, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := float64(time.Since(due)) / 1e6
		if heap != nil {
			heap.sample()
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			var rt *reqTrace
			if tr != nil {
				rt = tr.enter(a.idx)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(a.body)))
			done := time.Now()
			if rt != nil {
				tr.leave(rt, done, rec.Code == http.StatusOK)
			}
			r := reqResult{status: rec.Code, latency: float64(done.Sub(due)) / 1e6, lag: lag, n: len(a.idx)}
			if rec.Code == http.StatusOK {
				pool.check(rec.Body.Bytes(), a.idx, &r)
			} else {
				r.latency = math.Max(r.latency, deadlineMs)
			}
			res[i] = r
		}(i, a)
	}
	wg.Wait()
	out := &openRun{Rate: rate, Requests: len(arr), wall: time.Since(start)}
	var lags []float64
	for _, r := range res {
		out.Samples += r.n
		out.latencies = append(out.latencies, r.latency)
		lags = append(lags, r.lag)
		out.Wrong += r.wrong
		out.correct += r.correct
		if r.status == http.StatusOK && r.wrong == 0 {
			out.served += r.n
		} else {
			out.Failed++
		}
	}
	out.P50Ms = median(out.latencies)
	out.TailPct, out.TailMs = chunkedTail(out.latencies)
	out.LagMs = mean(lags)
	return out
}

// closedRun is the outcome of the closed loop.
type closedRun struct {
	Requests   int     `json:"requests"`
	Samples    int     `json:"samples"`
	Failed     int     `json:"failed"`
	Wrong      int     `json:"wrong"`
	RPS        float64 `json:"rps"`
	SamplesPer float64 `json:"samples_per_s"`
	served     int
}

// closedLoop runs satClients callers against h for d, each sending its
// next request as soon as the last one is answered. Its rates are medians
// over one-second windows.
func closedLoop(h http.Handler, pool *servePool, seed uint64, d time.Duration) *closedRun {
	type done struct {
		at time.Duration
		n  int
	}
	var (
		mu   sync.Mutex
		ends []done
		out  = &closedRun{}
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < satClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(subSeed(seed, seedTraffic), uint64(3+c)))
			for time.Since(start) < d {
				a := pool.draw(rng)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(a.body)))
				r := reqResult{status: rec.Code, n: len(a.idx)}
				if rec.Code == http.StatusOK {
					pool.check(rec.Body.Bytes(), a.idx, &r)
				}
				at := time.Since(start)
				mu.Lock()
				out.Requests++
				out.Samples += r.n
				out.Wrong += r.wrong
				if r.status == http.StatusOK && r.wrong == 0 {
					out.served += r.n
					ends = append(ends, done{at, r.n})
				} else {
					out.Failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(ends, func(i, j int) bool { return ends[i].at < ends[j].at })
	stamps := make([]time.Duration, len(ends))
	samples := 0
	for i, e := range ends {
		stamps[i] = e.at
		samples += e.n
	}
	out.RPS = windowRate(stamps, time.Second)
	if len(ends) > 0 {
		out.SamplesPer = out.RPS * float64(samples) / float64(len(ends))
	}
	return out
}

// check compares a 200 reply with the pool's classes; a reply that does
// not parse counts every sample as wrong.
func (p *servePool) check(body []byte, idx []int, r *reqResult) {
	var resp struct {
		Class   *int  `json:"class"`
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		r.wrong = len(idx)
		return
	}
	got := resp.Classes
	if resp.Class != nil {
		got = []int{*resp.Class}
	}
	if len(got) != len(idx) {
		r.wrong = len(idx)
		return
	}
	for j, i := range idx {
		if got[j] != p.alone[i] {
			r.wrong++
		}
		if got[j] == p.labels[i] {
			r.correct++
		}
	}
}

func newServer(c serve.Classifier) (*serve.Server, error) {
	return serve.New(serve.Config{Engine: c, InC: 3, InH: inputSize, InW: inputSize, Workers: 1})
}

func runServeOpen(cfg runConfig) (*outcome, error) {
	sc := cfg.Scale
	o := newOutcome()
	var servers []*serve.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	setupS, d, compileS, err := prepareDeployment(sc, cfg.Seed, func(d deployment) error {
		s, err := newServer(d.engine)
		servers = append(servers, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	srv := servers[len(servers)-1]
	pool, err := newServePool(d, sc.Pool, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(subSeed(cfg.Seed, seedTraffic), 2))
	if cfg.Trace {
		return traceServeOpen(cfg, d, srv, pool, rng, compileS, o)
	}
	heap := newHeapPeak()
	h := srv.Handler()
	runtime.GC()
	ref := openLoop(h, pool, pool.schedule(rng, sc.RefRate, cfg.Seconds/2), sc.RefRate, heap, nil)
	sat := closedLoop(h, pool, cfg.Seed, cfg.Seconds/2)
	o.Attempted = int64(ref.Requests + sat.Requests)
	o.Failed = int64(ref.Failed + sat.Failed)
	o.Checks["every_reply_matches_classify_alone"] = ref.Wrong+sat.Wrong == 0
	o.Checks["reference_rate_served"] = ref.served > 0

	o.Metrics = map[string]float64{
		"samples_per_s": sat.SamplesPer,
		"p50_ms":        ref.P50Ms,
		"tail_ms":       ref.TailMs,
		"max_rps":       sat.RPS,
		"fail_frac":     failBound(o.Failed, o.Attempted),
		"test_acc":      float64(ref.correct) / float64(max(ref.Samples, 1)),
		"train_loss":    d.trainLoss,
		"energy_norm":   int8Energy(),
		"size_norm":     deployedSize(d),
		"agree_frac":    1 - float64(ref.Wrong+sat.Wrong)/float64(max(ref.served+ref.Wrong+sat.served+sat.Wrong, 1)),
		"heap_peak_mb":  heap.mb(),
		"setup_s":       setupS,
	}
	o.Info["open_loop"] = ref
	o.Info["closed_loop"] = sat
	o.Info["compile_s"] = compileS
	return o, nil
}

// traceServeOpen runs the open loop for half the time on a server whose
// engine is wrapped by a timing Classifier, then for the other half on the
// untraced server. The traced half runs first, so start-up costs fall on
// it and the overhead reads high rather than low.
func traceServeOpen(cfg runConfig, d deployment, srv *serve.Server, pool *servePool, rng *rand.Rand, compileS float64, o *outcome) (*outcome, error) {
	sc := cfg.Scale
	half := cfg.Seconds / 2
	tr := newServeTrace(d.engine, pool)
	tsrv, err := newServer(tr)
	if err != nil {
		return nil, err
	}
	defer tsrv.Close()
	before := tsrv.Stats()
	traced := openLoop(tsrv.Handler(), pool, pool.schedule(rng, sc.RefRate, half), sc.RefRate, nil, tr)
	after := tsrv.Stats()
	plain := openLoop(srv.Handler(), pool, pool.schedule(rng, sc.RefRate, half), sc.RefRate, nil, nil)
	o.Attempted = int64(plain.Requests + traced.Requests)
	o.Failed = int64(plain.Failed + traced.Failed)
	o.Checks["every_reply_matches_classify_alone"] = plain.Wrong+traced.Wrong == 0

	m := perLayerZeros()
	tr.report(m, traced.wall)
	m["infer.compile_s"] = compileS
	m["serve.rejected_frac"] = float64(after.Rejected-before.Rejected) / float64(traced.Samples)
	m["serve.dropped_frac"] = float64(after.Dropped-before.Dropped) / float64(traced.Samples)
	m["gen.lag_ms"] = traced.LagMs
	m["trace.overhead_ms"] = traced.P50Ms - plain.P50Ms
	m["trace.overhead_frac"] = m["trace.overhead_ms"] / plain.P50Ms
	o.Metrics = m
	o.Info["untraced"] = plain
	o.Info["traced"] = traced
	return o, nil
}

// serveTrace is a serve.Classifier around the engine that times each
// engine call and attributes its samples to the requests that sent them,
// recognising samples by content.
type serveTrace struct {
	eng  *infer.Engine
	pool *servePool

	mu      sync.Mutex
	pending map[int][]*reqTrace // pool index -> requests waiting for it, oldest first
	calls   []float64           // engine ms per call
	sizes   []float64           // samples per call
	busy    time.Duration
	waits   []float64 // ms from request entry to the start of the engine call serving a sample
	selfs   []float64 // ms from the last engine call of a request to its reply
}

type reqTrace struct {
	entry   time.Time
	idx     []int
	lastEnd time.Time
	served  int
}

func newServeTrace(eng *infer.Engine, pool *servePool) *serveTrace {
	return &serveTrace{eng: eng, pool: pool, pending: map[int][]*reqTrace{}}
}

func (t *serveTrace) enter(idx []int) *reqTrace {
	rt := &reqTrace{entry: time.Now(), idx: idx}
	t.mu.Lock()
	for _, i := range idx {
		t.pending[i] = append(t.pending[i], rt)
	}
	t.mu.Unlock()
	return rt
}

// leave records a finished request and forgets its samples that never
// reached the engine.
func (t *serveTrace) leave(rt *reqTrace, done time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range rt.idx {
		q := t.pending[i]
		for j := 0; j < len(q); j++ {
			if q[j] == rt {
				q = append(q[:j], q[j+1:]...)
				j--
			}
		}
		t.pending[i] = q
	}
	if ok && rt.served == len(rt.idx) {
		t.selfs = append(t.selfs, float64(done.Sub(rt.lastEnd))/1e6)
	}
}

// Classify implements serve.Classifier.
func (t *serveTrace) Classify(x *tensor.Tensor) ([]int, error) {
	n := x.Dim(0)
	per := x.Len() / n
	owners := make([]*reqTrace, n)
	t.mu.Lock()
	for s := 0; s < n; s++ {
		i, ok := t.pool.key[sampleKey(x.Data()[s*per:(s+1)*per])]
		if q := t.pending[i]; ok && len(q) > 0 {
			owners[s], t.pending[i] = q[0], q[1:]
		}
	}
	t.mu.Unlock()
	start := time.Now()
	classes, err := t.eng.Classify(x)
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, float64(end.Sub(start))/1e6)
	t.sizes = append(t.sizes, float64(n))
	t.busy += end.Sub(start)
	for _, rt := range owners {
		if rt == nil {
			continue
		}
		t.waits = append(t.waits, float64(start.Sub(rt.entry))/1e6)
		rt.lastEnd = end
		rt.served++
	}
	t.mu.Unlock()
	return classes, err
}

func (t *serveTrace) report(m map[string]float64, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m["serve.engine_ms"] = mean(t.calls)
	m["serve.batch_mean"] = mean(t.sizes)
	m["serve.batch_p99"] = quantile(t.sizes, 0.99)
	m["serve.engine_busy_frac"] = t.busy.Seconds() / wall.Seconds()
	m["serve.queue_wait_ms"] = mean(t.waits)
	m["serve.http_self_ms"] = mean(t.selfs)
}
