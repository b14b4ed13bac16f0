package sweep

// The context-aware Job API — the execution surface the CLI, the HTTP
// daemon (`faultexp serve`), and library callers all drive. A Job wraps
// one grid run as a first-class object: construct it with NewJob
// (functional options replace the old positional Options bag), launch it
// with Start(ctx), observe it mid-flight with the lock-free Snapshot,
// stop it with Cancel (or by cancelling ctx), and collect the outcome
// with Wait.
//
// Cancellation drains, never tears: the pool stops dispatching new
// units but every unit already handed to a worker completes and its
// records are emitted in order (harness.RunOrdered), so the JSONL
// output after a cancel is always the exact contiguous prefix of the
// run's cell sequence — a valid `-resume` input that completes to bytes
// identical to an uninterrupted run. Units are dispatched in cell order,
// so that prefix holds every cell the job computed, less the finished
// blocks of the one trial-parallel cell a cancel cuts through. Cache
// hits are units too: a job cancelled before Start writes nothing,
// however warm its cache.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/xrand"
)

// JobState is a Job's lifecycle phase, in Snapshot and HTTP form.
type JobState string

const (
	// JobPending: constructed, Start not yet called (or queued by a
	// manager).
	JobPending JobState = "pending"
	// JobRunning: Start has been called and the run has not finished.
	JobRunning JobState = "running"
	// JobDone: every cell ran and the output flushed cleanly.
	JobDone JobState = "done"
	// JobCancelled: the context was cancelled (Cancel or ctx); the
	// output holds a clean resumable prefix of the cell sequence.
	JobCancelled JobState = "cancelled"
	// JobFailed: a non-cancellation error (bad graph build, writer
	// failure) aborted the run.
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is one a job can never leave.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCancelled || s == JobFailed
}

// Snapshot is a point-in-time, lock-free view of a running (or finished)
// job: how far along it is, how it is doing, and what slice of the grid
// it owns. Reading one never blocks the workers.
type Snapshot struct {
	State JobState `json:"state"`
	// CellsDone / CellsTotal count this run's (sharded, skip-adjusted,
	// limited) cell sequence; CellsDone includes resumed cells only through
	// CellsSkipped, which records the verified prefix a resume skipped.
	CellsDone    int `json:"cells_done"`
	CellsTotal   int `json:"cells_total"`
	CellsSkipped int `json:"cells_skipped,omitempty"`
	// TrialsDone counts completed trial executions. It advances on the
	// worker as each unit finishes — per trial block (a serial cell is
	// one block) or per coupled group; cache hits run no trials — so it
	// can run ahead of the durable output by the in-flight window;
	// CellsDone stays write-confirmed.
	TrialsDone int64 `json:"trials_done"`
	// GraphsBuilt / GraphsTotal track the lazy family-graph lifecycle:
	// Total is how many distinct family graphs this run needs, Built
	// how many have been constructed so far. A job mid-build shows
	// progress here before any cell completes.
	GraphsBuilt int `json:"graphs_built,omitempty"`
	GraphsTotal int `json:"graphs_total,omitempty"`
	// Errors counts cells whose Result carries an Err.
	Errors int `json:"errors"`
	// Cache accounting, present only on cache/flight-enabled jobs:
	// CacheHits counts cells emitted from the content-addressed cache
	// without any computation (tallied at the probe, before any unit
	// runs), CacheMisses cells this job computed (tallied on the worker
	// that finishes the cell's record — for a multi-block cell, the one
	// that folds its last block), and CacheInflight cells satisfied by
	// another job's in-flight computation (single-flight dedup). At
	// completion the three sum to CellsTotal.
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
	CacheInflight int64 `json:"cache_inflight,omitempty"`
	// Elapsed is wall-clock time since Start (frozen at completion);
	// zero before Start.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Shard is the round-robin slice of the grid this job executes.
	Shard Shard `json:"shard"`
	// Err is the terminal error message for failed/cancelled jobs.
	Err string `json:"err,omitempty"`
}

// jobConfig collects the functional options.
type jobConfig struct {
	w        Writer
	workers  int
	shard    Shard
	skip     int
	limit    int // WithCellLimit's n; meaningful only when limited
	limited  bool
	progress func(done, total int)
	cache    *cache.Cache
	flight   *cache.Flight
}

// JobOption configures a Job at construction.
type JobOption func(*jobConfig)

// WithWriter sets the streamed result sink (JSONL, CSV, MultiWriter, or
// any custom Writer). Without it results are computed and discarded —
// useful only when Snapshot-level observation is the point.
func WithWriter(w Writer) JobOption { return func(c *jobConfig) { c.w = w } }

// WithWorkers overrides the worker-pool size (0 = Spec.Workers, then
// GOMAXPROCS). Worker count never affects output bytes.
func WithWorkers(n int) JobOption { return func(c *jobConfig) { c.workers = n } }

// WithShard restricts the job to one round-robin slice of the grid (the
// zero Shard runs everything).
func WithShard(sh Shard) JobOption { return func(c *jobConfig) { c.shard = sh } }

// WithSkipCells skips the first n cells of the (sharded) cell sequence —
// the resume path: those records already sit in the output (verified by
// ScanResume), so the job appends only the remainder.
func WithSkipCells(n int) JobOption { return func(c *jobConfig) { c.skip = n } }

// WithCellLimit runs only the n cells that follow the skip: the
// (sharded) cell sequence's cells [skip, skip+n). n must be ≥ 1 and fit
// the run. The coordinator dispatches one contiguous chunk of a grid's
// cell order this way.
func WithCellLimit(n int) JobOption {
	return func(c *jobConfig) { c.limit, c.limited = n, true }
}

// WithProgress installs a callback invoked after each cell is emitted
// (serialized with every other emit — keep it fast).
func WithProgress(fn func(done, total int)) JobOption {
	return func(c *jobConfig) { c.progress = fn }
}

// WithCache attaches a content-addressed result cache (nil = none).
// Before scheduling, every cell is probed under its CellCacheKey: a
// verified hit becomes a unit that returns the stored record without
// building the cell's graph or running a single trial, and a miss
// computes, then writes its record back (atomically, temp file +
// rename) from the worker that finished it. Error records are never
// cached. Output bytes are identical with or without a cache —
// CachedResult proves it per record before emitting.
func WithCache(rc *cache.Cache) JobOption { return func(c *jobConfig) { c.cache = rc } }

// WithFlight attaches a single-flight group shared across jobs (nil =
// none): when another job is computing a cell with the same cache key,
// this job waits for its bytes instead of recomputing — the serve
// daemon's cross-job dedup. Applies to one-block cells, the units that
// are a whole cell (coupled groups and the blocks of a multi-block
// cell always compute locally on a probe miss, the latter folding on
// the worker that finishes the cell's last block).
func WithFlight(f *cache.Flight) JobOption { return func(c *jobConfig) { c.flight = f } }

// discardWriter is the default sink when no WithWriter option is given.
type discardWriter struct{}

func (discardWriter) Write(*Result) error { return nil }
func (discardWriter) Flush() error        { return nil }

// Job is one grid run as a first-class, observable, cancellable object.
// Construct with NewJob, launch with Start, observe with Snapshot, stop
// with Cancel, collect with Wait. A Job runs at most once; it is not
// reusable.
type Job struct {
	spec  *Spec
	cfg   jobConfig
	cells []Cell

	// Lifecycle. state holds a JobState as an int32 index into
	// jobStates; done closes when the run goroutine finishes, which
	// also publishes sum/err to Wait. ctlMu serializes only the
	// Start/Cancel control handoff — never the hot path, never
	// Snapshot.
	state     atomic.Int32
	cancelled atomic.Bool
	ctlMu     sync.Mutex
	cancel    context.CancelFunc
	done      chan struct{}
	sum       Summary
	err       error

	// Lock-free observability, written by the emit and compute paths
	// and read by Snapshot from any goroutine.
	cellsDone   atomic.Int64
	trialsDone  atomic.Int64
	errCells    atomic.Int64
	graphsBuilt atomic.Int64
	graphsTotal atomic.Int64
	startNano   atomic.Int64
	endNano     atomic.Int64
	failMsg     atomic.Value // string

	// Cache accounting (see Snapshot).
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheInflight atomic.Int64
}

// jobStates maps the atomic state index to its JobState; order matters.
var jobStates = [...]JobState{JobPending, JobRunning, JobDone, JobCancelled, JobFailed}

const (
	stPending int32 = iota
	stRunning
	stDone
	stCancelled
	stFailed
)

// NewJob validates the spec and options and returns a ready-to-Start
// job. The expensive work (graph construction, cell execution) happens
// after Start, on the job's own goroutine.
func NewJob(spec *Spec, opts ...JobOption) (*Job, error) {
	var cfg jobConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.w == nil {
		cfg.w = discardWriter{}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("sweep: workers must be ≥ 0 (0 = spec, then GOMAXPROCS), got %d", cfg.workers)
	}
	if err := cfg.shard.Validate(); err != nil {
		return nil, err
	}
	if spec.Coupled() {
		// A coupled group (one family × measure × model, every rate) is
		// the unit of work: it cannot be split across shards, and the
		// cell-granular resume skip cannot land mid-group.
		if cfg.shard.Enabled() {
			return nil, fmt.Errorf("sweep: coupled rate mode cannot shard (the whole rate axis is one unit of work)")
		}
		if cfg.skip != 0 || cfg.limited {
			return nil, fmt.Errorf("sweep: coupled rate mode cannot resume at cell granularity; rerun the grid")
		}
	}
	cells := spec.ShardCells(cfg.shard)
	if cfg.skip < 0 || cfg.skip > len(cells) {
		return nil, fmt.Errorf("sweep: skip of %d cells out of range (run has %d)", cfg.skip, len(cells))
	}
	cells = cells[cfg.skip:]
	if cfg.limited {
		if cfg.limit < 1 || cfg.limit > len(cells) {
			return nil, fmt.Errorf("sweep: cell limit of %d out of range (run has %d cells after the skip)", cfg.limit, len(cells))
		}
		cells = cells[:cfg.limit]
	}
	return &Job{
		spec:  spec,
		cfg:   cfg,
		cells: cells,
		done:  make(chan struct{}),
	}, nil
}

// Start launches the run on its own goroutine and returns immediately.
// Cancelling ctx (or calling Cancel) stops the run at a cell boundary:
// in-flight cells drain and are emitted, so the output stays a valid
// resume prefix. Start errors only on misuse (a second Start); run-time
// failures surface through Wait.
func (j *Job) Start(ctx context.Context) error {
	if !j.state.CompareAndSwap(stPending, stRunning) {
		return errors.New("sweep: job already started")
	}
	var cancel context.CancelFunc
	ctx, cancel = context.WithCancel(ctx)
	j.ctlMu.Lock()
	j.cancel = cancel
	j.ctlMu.Unlock()
	if j.cancelled.Load() {
		// Cancel arrived before Start (e.g. a queued job cancelled while
		// waiting for a pool slot): run the machinery anyway so Wait and
		// Snapshot see the ordinary cancelled terminal state.
		cancel()
	}
	j.startNano.Store(time.Now().UnixNano())
	go func() {
		// Release the derived context once the run is over, whatever
		// path ended it (WithCancel otherwise pins the parent's timer
		// and callback list until the parent itself is cancelled).
		defer cancel()
		j.run(ctx)
	}()
	return nil
}

// Cancel requests a graceful stop: no new cells are dispatched,
// in-flight cells drain and emit, the writer is flushed. Safe to call
// at any time, from any goroutine, any number of times — including
// before Start, which makes the eventual Start cancel immediately.
func (j *Job) Cancel() {
	j.cancelled.Store(true)
	j.ctlMu.Lock()
	cancel := j.cancel
	j.ctlMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Wait blocks until the run finishes (normally, by cancellation, or by
// failure) and returns the summary of the cells that were emitted plus
// the terminal error: nil for a clean run, a context.Canceled-wrapping
// error for a cancelled one, the underlying failure otherwise. Wait may
// be called from several goroutines; it returns the same outcome to all.
// Calling Wait before Start returns an error instead of blocking on a
// run that will never begin.
func (j *Job) Wait() (Summary, error) {
	if j.state.Load() == stPending {
		return Summary{}, errors.New("sweep: Wait called before Start")
	}
	<-j.done
	return j.sum, j.err
}

// Done returns a channel closed when the run reaches a terminal state —
// the select-friendly form of Wait.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cells returns this job's (sharded, skip-adjusted, limited) cell count.
func (j *Job) Cells() int { return len(j.cells) }

// Snapshot returns a point-in-time view of the job without taking any
// lock: every field is read from atomics, so workers are never stalled
// by an observer, however hot the poll rate.
func (j *Job) Snapshot() Snapshot {
	s := Snapshot{
		State:         jobStates[j.state.Load()],
		CellsDone:     int(j.cellsDone.Load()),
		CellsTotal:    len(j.cells),
		CellsSkipped:  j.cfg.skip,
		TrialsDone:    j.trialsDone.Load(),
		GraphsBuilt:   int(j.graphsBuilt.Load()),
		GraphsTotal:   int(j.graphsTotal.Load()),
		Errors:        int(j.errCells.Load()),
		Shard:         j.cfg.shard,
		CacheHits:     j.cacheHits.Load(),
		CacheMisses:   j.cacheMisses.Load(),
		CacheInflight: j.cacheInflight.Load(),
	}
	if start := j.startNano.Load(); start != 0 {
		end := j.endNano.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		s.Elapsed = time.Duration(end - start)
	}
	if msg, ok := j.failMsg.Load().(string); ok {
		s.Err = msg
	}
	return s
}

// finish records the terminal state, publishes the outcome, and wakes
// every Wait.
func (j *Job) finish(state int32, err error) {
	j.err = err
	if err != nil {
		j.failMsg.Store(err.Error())
	}
	j.endNano.Store(time.Now().UnixNano())
	j.state.Store(state)
	close(j.done)
}

// graphEntry is one family's lazily-built, ref-counted graph slot.
// refs is preset to the number of units that will reference the entry
// before the pool starts; the first acquire builds (sync.Once —
// concurrent acquirers block and share the one build), every unit
// releases exactly once, and the last release drops the graph, so peak
// graph memory tracks the in-flight working set instead of the whole
// grid.
type graphEntry struct {
	fam    FamilySpec
	budget gen.Budget
	seed   uint64

	refs atomic.Int64
	once sync.Once
	g    *graph.Graph
	err  error
}

// acquire returns the entry's graph, building it on first use. Safe for
// concurrent use: non-building acquirers observe g/err through the
// Once's happens-before edge.
func (e *graphEntry) acquire(built *atomic.Int64) (*graph.Graph, error) {
	e.once.Do(func() {
		e.g, _, e.err = gen.FromFamilyBudget(e.fam.Family, e.fam.Size, e.fam.K, e.budget, xrand.New(e.seed))
		if e.err == nil {
			built.Add(1)
		}
	})
	return e.g, e.err
}

// release drops one unit's reference; the last release frees the graph.
// The g = nil write is race-free because refs is preset to the total
// unit count before dispatch begins: no acquire can arrive after refs
// hits zero, and every other unit's reads of the graph happen-before
// its own refs decrement, which happens-before the final decrementer's
// write (sync/atomic acquire-release ordering).
func (e *graphEntry) release() {
	if e.refs.Add(-1) == 0 {
		e.g = nil
	}
}

// unit is one schedulable piece of work: a cache hit, a coupled rate
// group, or one trial block of an independent cell (a serial cell is
// one block covering [0, Trials)). Every unit returns finished records
// from the worker that ran it, and units are built in cell-major order,
// so emitting them in unit-index order reproduces the cell order.
type unit struct {
	cell   int // the unit's first cell (a coupled group spans len(Rates))
	lo, hi int // trial range of a block; [0, Trials) for a group
	// fam is the unit's family graph; nil marks a cache hit.
	fam *graphEntry
	// fold gathers the blocks of a multi-block cell; nil otherwise.
	fold *cellFold
}

// cellFold gathers one multi-block cell's blocks. Each block fills its
// slot and then counts left down; the worker that takes left to zero
// folds the cell.
type cellFold struct {
	left   atomic.Int32
	blocks []*blockOut
}

// add stores block b's output and returns the cell's blocks, in
// block-index order, once every block has landed (nil before that),
// clearing the slots for the fold that now owns them. The slot writes
// are race-free: each happens-before its own decrement, and the
// decrement that reaches zero observes every earlier one.
func (f *cellFold) add(b int, out *blockOut) []*blockOut {
	f.blocks[b] = out
	if f.left.Add(-1) != 0 {
		return nil
	}
	blocks := f.blocks
	f.blocks = nil
	return blocks
}

// run executes the job: probe the cache, plan every family up front
// (fail before any output), build graphs lazily and ref-counted on the
// pool, execute the units in unit order, stream their records to the
// writer in the same order, flush.
func (j *Job) run(parent context.Context) {
	// An internal cancel layer lets a mid-run failure — a graph build or
	// a write — stop dispatch the way a user cancel does (drain, flush,
	// then report stFailed instead of stCancelled). fail keeps the first.
	ctx, cancelRun := context.WithCancel(parent)
	defer cancelRun()
	var failed atomic.Pointer[error]
	fail := func(err error) {
		if failed.CompareAndSwap(nil, &err) {
			cancelRun()
		}
	}

	// per is how many cells one unit of work covers: a coupled rate group
	// (every rate of one family × measure × model) or a single cell.
	per := 1
	if j.spec.Coupled() {
		per = len(j.spec.Rates)
	}

	// Content-addressed cache probe, before any planning: every cell's
	// key is derived once (one reused hasher — the key path allocates
	// nothing), and cells whose stored record verifies under
	// CachedResult become hit units — no graph entry, no trial — that
	// return the stored records in place, so the output bytes are
	// identical to a cold run's. In coupled mode the rate group
	// computes all-or-nothing (probeCache masks partial groups), so a
	// group's first cell speaks for the whole group.
	var (
		cacheOn bool // any cache machinery attached
		keys    []cache.Key
		hits    []*Result // index-aligned with j.cells; non-nil = emit from cache
	)
	if j.cfg.cache != nil || j.cfg.flight != nil {
		cacheOn = true
		keys = make([]cache.Key, len(j.cells))
		var h cache.Hasher
		for i := range j.cells {
			keys[i] = CellCacheKey(&h, j.spec.RateMode, j.cells[i])
		}
	}
	if j.cfg.cache != nil {
		hits = probeCache(j.cfg.cache, j.cells, keys, per)
		for _, r := range hits {
			if r != nil {
				j.cacheHits.Add(1)
			}
		}
	}

	// Expand the cell sequence into units, cell-major, planning (not
	// building) each distinct family at its first scheduled cell: a bad
	// family spec — malformed size token, over-budget graph — still
	// fails before any output is written. Construction itself is
	// deferred to first use on the pool. The graph seed is semantic
	// (GraphSeed), so every shard that builds a family builds the
	// identical instance. A warm run builds no graphs at all:
	// GraphsTotal counts only families with at least one scheduled cell.
	entries := map[string]*graphEntry{}
	var units []unit
	for s := 0; s < len(j.cells); s += per {
		c := &j.cells[s]
		if hits != nil && hits[s] != nil {
			units = append(units, unit{cell: s})
			continue
		}
		key := c.Family.String()
		e := entries[key]
		if e == nil {
			// Sampled-precision cells measure in O(k·(n+m)), so they get
			// the raised size budget; exact cells keep the default OOM
			// guard.
			budget := gen.DefaultBudget
			if c.Precision.Sampled {
				budget = gen.SampledBudget
			}
			if _, _, err := gen.EstimateFamilyBudget(c.Family.Family, c.Family.Size, c.Family.K, budget); err != nil {
				j.finish(stFailed, fmt.Errorf("sweep: building %s: %w", key, err))
				return
			}
			e = &graphEntry{fam: c.Family, budget: budget, seed: GraphSeed(j.spec.Seed, c.Family)}
			entries[key] = e
		}
		// A coupled group (TrialBlock 0) and a serial cell are one unit;
		// a trial-parallel cell is one unit per block, in block order.
		nb := blockCount(c.Trials, c.TrialBlock)
		var fold *cellFold
		if nb > 1 {
			fold = &cellFold{blocks: make([]*blockOut, nb)}
			fold.left.Store(int32(nb))
		}
		for b := 0; b < nb; b++ {
			lo, hi := 0, c.Trials
			if nb > 1 {
				lo = b * c.TrialBlock
				hi = min(lo+c.TrialBlock, c.Trials)
			}
			// Preset the ref counts before any dispatch: release() relies
			// on refs only ever reaching zero after the final unit is done.
			e.refs.Add(1)
			units = append(units, unit{cell: s, lo: lo, hi: hi, fam: e, fold: fold})
		}
	}
	j.graphsTotal.Store(int64(len(entries)))

	workers := j.cfg.workers
	if workers == 0 {
		workers = j.spec.Workers
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// More workers than work units is pure waste — and without the clamp
	// a hostile "workers": 1e9 spec would allocate a workspace per
	// phantom worker before the pool ever clamps its goroutines.
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}

	// One private Workspace per worker goroutine (never shared, never
	// locked): the trial loops reuse its buffers, which is what makes
	// the steady-state sweep path allocation-free.
	workspaces := make([]*graph.Workspace, workers)
	for i := range workspaces {
		workspaces[i] = graph.NewWorkspace()
	}

	// writeBack stores one computed record in the cache (best-effort:
	// a full disk degrades to cold-run behavior, never to an error) and
	// returns the encoded payload for the single-flight publish. Error
	// records are not cached — an error may be environmental — and
	// return nil, which Aborts the flight so followers compute locally.
	writeBack := func(ci int, r *Result) []byte {
		if r.Err != "" {
			return nil
		}
		payload, err := json.Marshal(r)
		if err != nil {
			return nil
		}
		if j.cfg.cache != nil {
			j.cfg.cache.Put(keys[ci], payload)
		}
		return payload
	}

	// runUnit computes one unit on a pool worker and returns its finished
	// records: a hit's stored records, a coupled group's, a one-block
	// cell's, or — from whichever of a multi-block cell's blocks lands
	// last — the folded cell (its other blocks return none). Every
	// computing unit acquires its family's graph (building it on first
	// use) and releases it on the way out, so a family's graph lives
	// exactly as long as it has in-flight or pending units.
	runUnit := func(worker, ui int) []*Result {
		u := &units[ui]
		if u.fam == nil {
			return hits[u.cell : u.cell+per]
		}
		if failed.Load() != nil {
			// Don't burn hours computing units whose records can never
			// be written; still release the ref so counts stay balanced.
			u.fam.release()
			return nil
		}
		// Cross-job single-flight (one-block cells only): if another job
		// is already computing this exact cell, wait for its bytes instead
		// of acquiring the graph at all. A leader election obliges this
		// worker to Finish or Abort on every exit path below.
		var flightLeader bool
		if j.cfg.flight != nil && !j.spec.Coupled() && u.fold == nil {
			leader, p := j.cfg.flight.Begin(keys[u.cell])
			if !leader {
				if payload, ok := p.Wait(ctx); ok {
					if r, ok := CachedResult(payload, &j.cells[u.cell]); ok {
						u.fam.release()
						j.cacheInflight.Add(1)
						return []*Result{r}
					}
				}
				// Leader aborted (error cell, cancellation) or the bytes
				// did not verify: compute locally, outside the flight.
			} else {
				flightLeader = true
			}
		}
		g, err := u.fam.acquire(&j.graphsBuilt)
		if err != nil {
			if flightLeader {
				j.cfg.flight.Abort(keys[u.cell])
			}
			u.fam.release()
			fail(fmt.Errorf("sweep: building %s: %w", u.fam.fam.String(), err))
			return nil
		}
		defer u.fam.release()
		ws := workspaces[worker]
		cells := j.cells[u.cell : u.cell+per]
		var rs []*Result
		if j.spec.Coupled() {
			c0 := cells[0]
			rs = runCoupledGroup(g, cells, ws, CoupledGroupSeed(j.spec.Seed, c0.Family, c0.Measure, c0.Model))
		} else {
			c := cells[0]
			blocks := []*blockOut{runTrialBlock(g, c, ws, u.lo, u.hi)}
			if u.fold != nil {
				blocks = u.fold.add(u.lo/c.TrialBlock, blocks[0])
			}
			if blocks != nil {
				rs = []*Result{foldBlocks(c, blocks)}
			}
		}
		j.trialsDone.Add(int64(u.hi-u.lo) * int64(per))
		// Write finished records back here, on the worker, so encoding
		// and the cache write stay off the serialized emit path.
		var payload []byte
		if cacheOn {
			j.cacheMisses.Add(int64(len(rs)))
			for k, r := range rs {
				payload = writeBack(u.cell+k, r)
			}
		}
		if flightLeader {
			// A flight leader is a one-block cell: payload is its cell's.
			if payload != nil {
				j.cfg.flight.Finish(keys[u.cell], payload)
			} else {
				j.cfg.flight.Abort(keys[u.cell])
			}
		}
		return rs
	}

	// emit streams each unit's records in unit order — cell order.
	emit := func(_ int, rs []*Result) {
		for _, r := range rs {
			if failed.Load() != nil {
				// The run already failed: the remaining records can never
				// be written in order, so they are not part of its outcome.
				// Counting them would inflate the summary, and reporting
				// progress for them would show a run marching on after its
				// output died.
				return
			}
			// The Summary counts every cell that reached the sink — the
			// one whose write fails included (it died *at* the sink, not
			// before it). The lock-free Snapshot counters below advance
			// only after a successful write, so Snapshot.CellsDone always
			// matches what -resume will find durably in the output.
			j.sum.Cells++
			if r.Err != "" {
				j.sum.Errors++
			}
			if err := j.cfg.w.Write(r); err != nil {
				fail(fmt.Errorf("sweep: writing results: %w", err))
				return
			}
			j.cellsDone.Store(int64(j.sum.Cells))
			j.errCells.Store(int64(j.sum.Errors))
			if j.cfg.progress != nil {
				j.cfg.progress(j.sum.Cells, len(j.cells))
			}
		}
	}

	ctxErr := harness.RunOrdered(ctx, len(units), workers, runUnit, emit)
	// Flush regardless of how the run ended: a cancelled job's prefix
	// must be durable for -resume to pick up.
	flushErr := j.cfg.w.Flush()
	switch {
	case failed.Load() != nil:
		j.finish(stFailed, *failed.Load())
	case ctxErr != nil:
		j.finish(stCancelled, fmt.Errorf("sweep: cancelled after %d of %d cells: %w", j.sum.Cells, len(j.cells), ctxErr))
	case flushErr != nil:
		j.finish(stFailed, fmt.Errorf("sweep: flushing results: %w", flushErr))
	default:
		j.finish(stDone, nil)
	}
}
