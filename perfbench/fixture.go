package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Every workload runs ResNet-20 at 16×16, width 0.25, on 10-class
// SynthCIFAR.
const (
	classes   = 10
	inputSize = 16
	width     = 0.25
	batchSize = 64
)

// subSeed derives an independent seed for one use (data, weights,
// training order, traffic) from the run's seed.
func subSeed(seed uint64, use uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + use*0xBF58476D1CE4E5B9 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// trainSessions is how many same-seed sessions an untraced training run
// makes: two, for the determinism check. A fixed count rather than the
// run's time, so the number of steps a run proves, and with it fail_frac,
// does not depend on how fast the machine is.
const trainSessions = 2

const (
	seedData = iota + 1
	seedModel
	seedTrain
	seedTraffic
)

// fixture is a workload's generated inputs.
type fixture struct {
	train, test data.Dataset
	model       *models.Model
}

func makeData(sc scale, seed uint64) (trainSet, testSet data.Dataset, err error) {
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: classes, Train: sc.Train, Test: sc.Test, Size: inputSize, Seed: subSeed(seed, seedData),
	})
	if err != nil {
		return nil, nil, err
	}
	return tr, te, nil
}

func buildModel(seed uint64) (*models.Model, error) {
	return models.ResNet20(models.Config{Classes: classes, InputSize: inputSize, Width: width, Seed: subSeed(seed, seedModel)})
}

// makeFixture is the set-up every workload times: dataset generation and
// model build.
func makeFixture(sc scale, seed uint64) (fixture, error) {
	tr, te, err := makeData(sc, seed)
	if err != nil {
		return fixture{}, err
	}
	m, err := buildModel(seed)
	if err != nil {
		return fixture{}, err
	}
	return fixture{train: tr, test: te, model: m}, nil
}

// layerGroup maps a top-level layer name such as "resnet20.s1b0" or
// "resnet20.stem.conv" to its group ("s1b0", "stem").
func layerGroup(name string) string {
	_, rest, _ := strings.Cut(name, ".")
	g, _, _ := strings.Cut(rest, ".")
	return g
}

// stepClock watches a training loop from outside through the datasets it
// reads. data.Loader.Next reads a batch's first sample twice in a row,
// which marks the start of a step; the first read of the test set after
// training reads marks the end of an epoch's last step.
type stepClock struct {
	mu     sync.Mutex
	last   int
	inEval bool
	events []clockEvent
	heap   *heapPeak
}

type clockEvent struct {
	t        time.Time
	epochEnd bool
}

func newStepClock(h *heapPeak) *stepClock { return &stepClock{last: -1, heap: h} }

func (c *stepClock) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last, c.inEval, c.events = -1, false, c.events[:0]
}

func (c *stepClock) trainSet(ds data.Dataset) data.Dataset { return clockedSet{ds, c, false} }
func (c *stepClock) testSet(ds data.Dataset) data.Dataset  { return clockedSet{ds, c, true} }

type clockedSet struct {
	data.Dataset
	c    *stepClock
	test bool
}

func (d clockedSet) Sample(i int) (*tensor.Tensor, int) {
	c := d.c
	c.mu.Lock()
	switch {
	case d.test && !c.inEval:
		c.inEval, c.last = true, -1
		c.events = append(c.events, clockEvent{t: time.Now(), epochEnd: true})
	case !d.test:
		c.inEval = false
		if i == c.last {
			c.events = append(c.events, clockEvent{t: time.Now()})
			c.heap.sample()
		}
		c.last = i
	}
	c.mu.Unlock()
	return d.Dataset.Sample(i)
}

// periods returns, in milliseconds, the time from the start of every
// group-th step of an epoch to the start of the step group later, or to
// the end of the epoch for the last one: per step for group 1, per
// parameter-server round for group = workers.
func (c *stepClock) periods(group int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	var starts []time.Time
	flush := func(end time.Time) {
		for k := 0; k < len(starts); k += group {
			next := end
			if k+group < len(starts) {
				next = starts[k+group]
			}
			out = append(out, float64(next.Sub(starts[k]))/1e6)
		}
		starts = starts[:0]
	}
	for _, e := range c.events {
		if e.epochEnd {
			flush(e.t)
			continue
		}
		starts = append(starts, e.t)
	}
	return out
}

// epochs returns, in seconds, each epoch's wall time: from its first step
// to the next epoch's first step, evaluation included, and for the last
// epoch to end.
func (c *stepClock) epochs(end time.Time) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firsts []time.Time
	newEpoch := true
	for _, e := range c.events {
		switch {
		case e.epochEnd:
			newEpoch = true
		case newEpoch:
			firsts = append(firsts, e.t)
			newEpoch = false
		}
	}
	out := make([]float64, len(firsts))
	for i, t := range firsts {
		next := end
		if i+1 < len(firsts) {
			next = firsts[i+1]
		}
		out[i] = next.Sub(t).Seconds()
	}
	return out
}

// predictions classifies every sample of ds with the float model in
// evaluation mode.
func predictions(m *models.Model, ds data.Dataset) ([]int, error) {
	loader, err := data.NewLoader(ds, batchSize, nil)
	if err != nil {
		return nil, err
	}
	var out []int
	for {
		x, _, ok := loader.Next()
		if !ok {
			return out, nil
		}
		logits, err := m.Net.Forward(x, false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < logits.Dim(0); i++ {
			out = append(out, logits.ArgMaxRow(i))
		}
	}
}

// datasetLoss is the float model's mean cross-entropy over ds, with
// batch-norm in training mode (batch statistics).
func datasetLoss(m *models.Model, ds data.Dataset) (float64, error) {
	loader, err := data.NewLoader(ds, batchSize, nil)
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for {
		x, labels, ok := loader.Next()
		if !ok {
			break
		}
		logits, err := m.Net.Forward(x, true)
		if err != nil {
			return 0, err
		}
		l, _, err := nn.SoftmaxCrossEntropy{}.Forward(logits, labels)
		if err != nil {
			return 0, err
		}
		sum += l * float64(len(labels))
		n += len(labels)
	}
	if n == 0 {
		return 0, fmt.Errorf("empty dataset")
	}
	return sum / float64(n), nil
}

// agreement is the share of positions where a and b hold the same value.
func agreement(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}
