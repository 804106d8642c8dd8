package dist

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The engine: one goroutine per worker, each owning a full model replica,
// with the main goroutine acting as the parameter server.
//
// Synchronization model (kept deliberately narrow so the whole engine is
// provably race-free and deterministic):
//
//   - A worker touches only its own replica, its own gradient staging
//     tensors, and the batch it was handed. It never reads server state.
//   - The server touches worker-owned state (staged gradients, replica
//     weights during a sync) only while the worker is parked between jobs.
//     The job dispatch and result delivery channels provide the
//     happens-before edges.
//   - Codec encoding, gradient averaging and weight syncs all run on the
//     server goroutine, so every floating-point reduction has a
//     scheduling-independent order under the strict barrier. Worker
//     forward and backward passes are the only concurrently-executing
//     compute, and each one is deterministic in isolation.
//
// Membership has two modes:
//
//   - Strict barrier (HeartbeatTimeout == 0): every round waits for every
//     dispatched shard and ingests them in slot order. Together with the
//     shared server core in dist.go this makes any worker count
//     seed-deterministic, and a Workers=1 run bit-identical to a plain
//     sequential loop over the same core (reference_test.go). A worker
//     error aborts the run.
//   - Elastic (HeartbeatTimeout > 0): a worker that holds a shard past
//     the timeout is declared dead and expelled from the barrier; the
//     round's average re-weights over the gradients that did arrive.
//     Dead workers are respawned from the server's replica state while
//     the MaxRespawns budget lasts (the lost shard is re-dispatched to
//     the replacement); past it, the pool shrinks. With MinShards set the
//     server steps on a K-of-N quorum once the grace period expires, and
//     stragglers' late gradients fold into the round in progress while no
//     more than MaxStaleness rounds old — older ones (and deliveries from
//     replaced workers) are dropped and counted. Gradients ingest in
//     arrival order, so elastic runs are not bit-reproducible; they trade
//     that for liveness under failure.
//
// Liveness under injected faults is structural: a hung worker sleeps in a
// select that also watches the engine's quit channel, every result send
// does the same, and the collect loop's heartbeat timer bounds every
// wait. No failure mode leaves the server blocked or a goroutine leaked
// past the run's end.
//
// Batch-norm running statistics are worker-local (as in a real data
// deployment); evaluation uses worker 0's replica under the strict
// barrier, and any parked live replica (freshly synced) in elastic mode.

// job is one shard assignment for a worker round.
type job struct {
	round  int // 1-based global dispatch round, for staleness accounting
	batch  *tensor.Tensor
	labels []int
}

// result is one worker's round outcome, delivered on the engine's shared
// results channel. The replica pointer identifies the sender generation:
// a delivery from a replaced replica no longer matches its slot.
type result struct {
	r     *replica
	round int
	err   error
}

// replica is one worker: a private model copy plus gradient staging.
type replica struct {
	id     int // membership slot
	m      *models.Model
	params []*nn.Param
	stage  []*tensor.Tensor
	jobs   chan job
	// beat is the worker's heartbeat: UnixNano of its last liveness
	// signal (job receipt, step completion). The server reads it to
	// decide whether a busy worker is merely slow or gone.
	beat atomic.Int64
}

// loop is the worker goroutine: take a job, run it, deliver the result.
// Every blocking point watches quit, so the engine's exit releases even a
// worker hung in an injected fault.
func (r *replica) loop(quit <-chan struct{}, results chan<- result, plan *FaultPlan) {
	loss := nn.SoftmaxCrossEntropy{}
	for {
		var jb job
		var ok bool
		select {
		case <-quit:
			return
		case jb, ok = <-r.jobs:
			if !ok {
				return
			}
		}
		r.beat.Store(time.Now().UnixNano())
		f := plan.take(r.id, jb.round)
		if f != nil && f.Kind == FaultHang {
			select {
			case <-quit:
				return
			case <-time.After(f.Delay):
			}
		}
		err := r.run(loss, jb, f)
		r.beat.Store(time.Now().UnixNano())
		select {
		case <-quit:
			return
		case results <- result{r: r, round: jb.round, err: err}:
		}
	}
}

// run executes one shard with panic isolation: a panic in the model code
// (or an injected fault) is recovered into an error, so one worker's
// crash cannot take down the training process.
func (r *replica) run(loss nn.SoftmaxCrossEntropy, jb job, f *Fault) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("dist: worker %d panic: %v", r.id, p)
		}
	}()
	if f != nil && f.Kind == FaultPanic {
		panic(fmt.Sprintf("injected fault (worker %d, round %d)", r.id, jb.round))
	}
	return r.step(loss, jb)
}

// step runs one forward/backward on the replica and stages the gradients
// for the server to ingest.
func (r *replica) step(loss nn.SoftmaxCrossEntropy, jb job) error {
	logits, err := r.m.Net.Forward(jb.batch, true)
	if err != nil {
		return fmt.Errorf("dist: worker %d forward: %w", r.id, err)
	}
	_, dlogits, err := loss.Forward(logits, jb.labels)
	if err != nil {
		return fmt.Errorf("dist: worker %d loss: %w", r.id, err)
	}
	if _, err := r.m.Net.Backward(dlogits); err != nil {
		return fmt.Errorf("dist: worker %d backward: %w", r.id, err)
	}
	for i, p := range r.params {
		if err := r.stage[i].CopyFrom(p.Grad); err != nil {
			return fmt.Errorf("dist: worker %d %s: %w", r.id, p.Name, err)
		}
		p.ZeroGrad()
	}
	return nil
}

// slot is the server-side view of one membership slot: the replica
// currently occupying it plus its scheduling state. Slots are touched
// only by the server goroutine.
type slot struct {
	r        *replica
	alive    bool // member of the gradient barrier
	busy     bool // has an outstanding job
	round    int  // round of the outstanding job
	job      job  // the outstanding job, kept for re-dispatch on respawn
	needSync bool // must pull fresh weights before its next job
}

// engine is the parameter-server run: the shared server core,
// the membership slots, and the round bookkeeping.
type engine struct {
	cfg      Config
	srv      *server
	loader   *data.Loader
	slots    []*slot
	results  chan result
	quit     chan struct{}
	strict   bool
	roundSeq int
	respawns int
	// per-round collect state
	got     int // gradients ingested this round (fresh + folded stale)
	pending int // current-round shards still outstanding
}

// runEngine executes the goroutine-per-worker engine.
func runEngine(cfg Config) (*Stats, error) {
	srv, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xD157)
	loader, err := data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	startEpoch := 0
	if cfg.Resume != nil {
		if startEpoch, err = srv.restore(cfg.Resume, loader); err != nil {
			return nil, err
		}
	}
	e := &engine{
		cfg:    cfg,
		srv:    srv,
		loader: loader,
		// Buffered past the largest possible sender population so
		// deliveries from replaced replicas never contend.
		results: make(chan result, cfg.Workers+cfg.MaxRespawns+4),
		quit:    make(chan struct{}),
		strict:  cfg.HeartbeatTimeout <= 0,
	}
	defer close(e.quit)

	// Build one full replica per worker and align it bit-for-bit with the
	// server: weights, quant grids, masters and batch-norm statistics.
	// This initial ship is uncharged (in a deployment the initial weights
	// travel with the job submission, not over the training-round links).
	snap := nn.CaptureState(srv.m.Layers())
	e.slots = make([]*slot, cfg.Workers)
	for w := range e.slots {
		r, err := e.spawn(w, snap)
		if err != nil {
			return nil, err
		}
		e.slots[w] = &slot{r: r, alive: true}
	}
	// On resume, replicas recover their worker-local batch-norm history
	// where the checkpoint captured it (srv.restore checked there is one
	// entry per slot; a nil entry means that worker was mid-shard at
	// checkpoint time, and its replacement keeps the server clone).
	if cfg.Resume != nil {
		for w, rs := range cfg.Resume.Replicas {
			if rs == nil {
				continue
			}
			if err := nn.RestoreState(e.slots[w].r.m.Layers(), rs); err != nil {
				return nil, fmt.Errorf("dist: resume worker %d: %w", w, err)
			}
		}
	}
	return e.run(startEpoch)
}

// spawn builds a fresh replica for a slot from a server-state snapshot
// and starts its goroutine.
func (e *engine) spawn(id int, snap *nn.NetState) (*replica, error) {
	m, err := e.cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("dist: build worker %d: %w", id, err)
	}
	if err := nn.RestoreState(m.Layers(), snap); err != nil {
		return nil, fmt.Errorf("dist: worker %d: %w", id, err)
	}
	r := &replica{
		id:     id,
		m:      m,
		params: m.Params(),
		// One-deep so dispatch to a parked worker never blocks the server.
		jobs: make(chan job, 1),
	}
	r.stage = make([]*tensor.Tensor, len(r.params))
	for i, p := range r.params {
		r.stage[i] = tensor.New(p.Value.Shape()...)
	}
	r.beat.Store(time.Now().UnixNano())
	go r.loop(e.quit, e.results, e.cfg.Fault)
	return r, nil
}

// run drives the epoch/round loop.
func (e *engine) run(startEpoch int) (*Stats, error) {
	cfg, srv := e.cfg, e.srv
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		// End of epoch can arrive mid-round (batch count not divisible by
		// the worker count); the partial round still trains and the flag
		// ends the epoch afterwards.
		for exhausted := false; !exhausted; {
			stepped, ex, err := e.round()
			if err != nil {
				return nil, err
			}
			exhausted = ex
			if !stepped {
				continue
			}
			// Broadcast: every worker pulls the fresh weights (and, in
			// quantized mode, the grids they were packed on). The strict
			// barrier syncs replicas in place — they are all parked —
			// while elastic mode defers each sync to the slot's next
			// dispatch, since a straggler's replica may not be touched
			// mid-flight. Only the pulls of the workers that trained are
			// charged (in finishRound).
			if err := e.distribute(); err != nil {
				return nil, err
			}
			if exhausted {
				// The loader already reshuffled for the next epoch; the
				// epoch-boundary checkpoint below covers this position.
				continue
			}
			if srv.shouldCheckpoint() {
				if err := e.checkpoint(epoch); err != nil {
					return nil, err
				}
			}
			if srv.timeToPublish() {
				m, err := e.evalModel()
				if err != nil {
					return nil, err
				}
				if err := srv.publish(m); err != nil {
					return nil, err
				}
			}
			if cfg.HaltAfterRounds > 0 && srv.st.Rounds >= cfg.HaltAfterRounds {
				if cfg.CheckpointPath != "" {
					if err := e.checkpoint(epoch); err != nil {
						return nil, err
					}
				}
				return e.finish(true)
			}
		}
		if err := srv.finishEpoch(); err != nil {
			return nil, err
		}
		if srv.ctrl != nil {
			// The epoch-boundary precision adjustment requantized the
			// server's weights; realign the replicas before evaluation
			// and the next epoch. Uncharged: the adjustment is a
			// server-side requantization, not a training round.
			if err := e.distribute(); err != nil {
				return nil, err
			}
		}
		m, err := e.evalModel()
		if err != nil {
			return nil, err
		}
		acc, err := train.Evaluate(m, cfg.Test, cfg.BatchSize)
		if err != nil {
			return nil, fmt.Errorf("dist: epoch %d eval: %w", epoch, err)
		}
		srv.st.Accs = append(srv.st.Accs, acc)
		haltNow := cfg.HaltAfterRounds > 0 && srv.st.Rounds >= cfg.HaltAfterRounds
		if cfg.CheckpointPath != "" && (cfg.CheckpointEvery > 0 || haltNow) {
			if err := e.checkpoint(epoch + 1); err != nil {
				return nil, err
			}
		}
		if haltNow {
			return e.finish(true)
		}
	}
	if cfg.CheckpointPath != "" {
		if err := e.checkpoint(cfg.Epochs); err != nil {
			return nil, err
		}
	}
	if cfg.PublishPath != "" {
		m, err := e.evalModel()
		if err != nil {
			return nil, err
		}
		if err := e.srv.publish(m); err != nil {
			return nil, err
		}
	}
	return e.finish(false)
}

func (e *engine) finish(halted bool) (*Stats, error) {
	m, err := e.evalModel()
	if err != nil {
		return nil, err
	}
	e.srv.st.Halted = halted
	e.srv.finalize(m)
	return e.srv.st, nil
}

// round runs one dispatch/collect/step cycle. stepped reports whether the
// server applied an update; exhausted reports end of epoch.
func (e *engine) round() (stepped, exhausted bool, err error) {
	srv := e.srv
	srv.beginRound()
	e.roundSeq++
	e.got, e.pending = 0, 0
	round := e.roundSeq
	dispatched := 0
	for {
		for _, s := range e.slots {
			if !s.alive || s.busy {
				continue
			}
			batch, labels, ok := e.loader.Next()
			if !ok {
				exhausted = true
				break
			}
			if err := e.dispatch(s, job{round: round, batch: batch, labels: labels}); err != nil {
				return false, false, err
			}
			dispatched++
			e.pending++
		}
		if dispatched > 0 || exhausted {
			break
		}
		// No live slot was free: every member is either dead or a busy
		// straggler. Wait for one event (a delivery or a heartbeat
		// expiry) and retry; with no live members at all the run is lost.
		if !e.anyAlive() {
			return false, false, fmt.Errorf("dist: all %d workers lost", len(e.slots))
		}
		if err := e.awaitOne(round); err != nil {
			return false, false, err
		}
	}
	if dispatched == 0 && e.got == 0 {
		return false, exhausted, nil
	}
	if e.strict {
		if err := e.collectStrict(dispatched); err != nil {
			return false, exhausted, err
		}
	} else {
		if err := e.collectElastic(round); err != nil {
			return false, exhausted, err
		}
	}
	if e.got == 0 {
		srv.st.SkippedRounds++
		return false, exhausted, nil
	}
	if e.got < dispatched {
		srv.st.PartialRounds++
	}
	if err := srv.finishRound(e.got); err != nil {
		return false, exhausted, err
	}
	return true, exhausted, nil
}

// dispatch hands a job to a parked live slot, syncing its replica first
// if it missed a broadcast.
func (e *engine) dispatch(s *slot, jb job) error {
	if s.needSync {
		if err := nn.SyncParams(s.r.params, e.srv.params); err != nil {
			return fmt.Errorf("dist: worker %d: %w", s.r.id, err)
		}
		s.needSync = false
	}
	s.busy = true
	s.round = jb.round
	s.job = jb
	s.r.jobs <- jb
	return nil
}

// collectStrict is the strict barrier: wait for every dispatched shard,
// then ingest in slot order, so the arithmetic (and codec ordering) does
// not depend on goroutine scheduling. A worker error aborts the run.
func (e *engine) collectStrict(dispatched int) error {
	var firstErr error
	for e.pending > 0 {
		res := <-e.results
		e.slots[res.r.id].busy = false
		e.pending--
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// Under the strict barrier every slot is always alive, so the round
	// dispatched to slots 0..dispatched-1 in order.
	for w := 0; w < dispatched; w++ {
		if err := e.srv.ingest(e.slots[w].r.stage); err != nil {
			return err
		}
		e.got++
	}
	return nil
}

// collectElastic gathers the round's gradients under elastic membership:
// results ingest as they arrive, the heartbeat timer expels workers that
// stall past the timeout (respawning them while the budget lasts), and
// once the grace period has expired a MinShards quorum lets the round
// step without its stragglers.
func (e *engine) collectElastic(round int) error {
	timer := time.NewTimer(e.cfg.HeartbeatTimeout)
	defer timer.Stop()
	for e.pending > 0 {
		select {
		case res := <-e.results:
			if err := e.handleResult(res, round); err != nil {
				return err
			}
		case <-timer.C:
			if err := e.reapDead(round); err != nil {
				return err
			}
			if e.cfg.MinShards > 0 && e.got >= e.cfg.MinShards {
				// Quorum reached and grace expired: step now. The
				// stragglers stay busy; their gradients arrive in a
				// later round as stale.
				return nil
			}
			timer.Reset(e.cfg.HeartbeatTimeout)
		}
	}
	return nil
}

// awaitOne blocks for a single membership event — used when a new round
// cannot dispatch because every live member is a busy straggler.
func (e *engine) awaitOne(round int) error {
	timer := time.NewTimer(e.cfg.HeartbeatTimeout)
	defer timer.Stop()
	select {
	case res := <-e.results:
		return e.handleResult(res, round)
	case <-timer.C:
		return e.reapDead(round)
	}
}

// handleResult folds one delivery into the round: a fresh gradient
// ingests directly, a stale one ingests under the MaxStaleness bound or
// is dropped and counted, a worker error marks the replica for resync. A
// delivery also revives a slot that was declared dead but not yet
// replaced — the worker was slow, not gone.
func (e *engine) handleResult(res result, round int) error {
	s := e.slots[res.r.id]
	if s.r != res.r {
		// A replaced replica's delivery: its slot moved on without it.
		e.srv.st.StaleDropped++
		return nil
	}
	if !s.alive {
		s.alive = true
		e.srv.st.Rejoins++
	}
	s.busy = false
	s.needSync = true
	if res.round == round {
		e.pending--
	}
	if res.err != nil {
		e.srv.st.WorkerErrors++
		return nil
	}
	if res.round != round {
		if e.cfg.MaxStaleness <= 0 || round-res.round > e.cfg.MaxStaleness {
			e.srv.st.StaleDropped++
			return nil
		}
		e.srv.st.StaleFolded++
	}
	if err := e.srv.ingest(res.r.stage); err != nil {
		return err
	}
	e.got++
	return nil
}

// reapDead expels busy workers whose heartbeat is older than the timeout
// and, while the respawn budget lasts, replaces them with a fresh clone
// of the server replica and re-dispatches the shard they were holding.
func (e *engine) reapDead(round int) error {
	now := time.Now().UnixNano()
	cut := e.cfg.HeartbeatTimeout.Nanoseconds()
	for _, s := range e.slots {
		if !s.alive || !s.busy || now-s.r.beat.Load() <= cut {
			continue
		}
		s.alive = false
		s.busy = false
		e.srv.st.WorkersLost++
		if s.round == round {
			e.pending--
		}
		if e.respawns >= e.cfg.MaxRespawns {
			continue // budget exhausted: the pool shrinks
		}
		e.respawns++
		e.srv.st.Respawns++
		r, err := e.spawn(s.r.id, nn.CaptureState(e.srv.m.Layers()))
		if err != nil {
			return err
		}
		s.r = r
		s.alive = true
		s.needSync = false
		held := s.job
		if err := e.dispatch(s, held); err != nil {
			return err
		}
		if s.round == round {
			e.pending++
		}
	}
	return nil
}

// distribute pushes the server's fresh weights to the replicas: in place
// for the strict barrier (all workers parked), deferred to each slot's
// next dispatch in elastic mode.
func (e *engine) distribute() error {
	if e.strict {
		for _, s := range e.slots {
			if err := nn.SyncParams(s.r.params, e.srv.params); err != nil {
				return fmt.Errorf("dist: worker %d: %w", s.r.id, err)
			}
		}
		return nil
	}
	for _, s := range e.slots {
		s.needSync = true
	}
	return nil
}

func (e *engine) anyAlive() bool {
	for _, s := range e.slots {
		if s.alive {
			return true
		}
	}
	return false
}

// evalModel picks the model to evaluate, publish and finalize on: worker
// 0's replica under the strict barrier (always parked between rounds), a
// freshly synced parked live replica in elastic mode, or — degraded, when
// every member is busy or dead — the server model itself (whose
// batch-norm statistics are the initial ones, as the server never runs a
// forward pass).
func (e *engine) evalModel() (*models.Model, error) {
	if e.strict {
		return e.slots[0].r.m, nil
	}
	for _, s := range e.slots {
		if !s.alive || s.busy {
			continue
		}
		if s.needSync {
			if err := nn.SyncParams(s.r.params, e.srv.params); err != nil {
				return nil, fmt.Errorf("dist: worker %d: %w", s.r.id, err)
			}
			s.needSync = false
		}
		return s.r.m, nil
	}
	return e.srv.m, nil
}

// replicaStates snapshots each parked replica for a checkpoint (a busy
// straggler cannot be touched; its entry stays nil and resume falls back
// to a server clone for that slot).
func (e *engine) replicaStates() []*nn.NetState {
	out := make([]*nn.NetState, len(e.slots))
	for i, s := range e.slots {
		if s.busy {
			continue
		}
		out[i] = nn.CaptureState(s.r.m.Layers())
	}
	return out
}

func (e *engine) checkpoint(epoch int) error {
	return e.srv.checkpoint(epoch, e.loader, e.replicaStates())
}
