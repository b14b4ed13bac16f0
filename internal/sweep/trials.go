package sweep

// The trial-grained execution layer. PR-4 moved the engine's unit of
// work from the cell to the trial: measures no longer hand-roll
// accumulation loops, they Register a Measure whose TrialSetup returns
// a TrialFunc measuring ONE fault realization, and RunTrials — owned
// by the engine — drives the loop, seeds trial t independently from the
// cell seed (xrand.SeedAt, so extending Trials never changes earlier
// trials' numbers), and folds every observation into streaming
// accumulators (stats.Stream). Each observed base metric then
// deterministically gains _mean/_std/_min/_max companions in the Result
// stream, which is what lets downstream plots carry error bars and lets
// `faultexp agg` tell a noisy cell from a converged one.

import (
	"fmt"
	"sort"
	"sync"

	"faultexp/internal/graph"
	"faultexp/internal/stats"
	"faultexp/internal/xrand"
)

// TrialSeed derives the deterministic RNG root for trial t of a cell.
// It depends only on (cell seed, t) — never on the trial count or on
// other trials — so a cell re-run with more trials reproduces its first
// trials bit-for-bit, and any single trial can be replayed in isolation.
func TrialSeed(cellSeed uint64, t int) uint64 {
	return xrand.SeedAt(cellSeed, uint64(t))
}

// TrialFunc measures one trial: inject one fault realization (through
// ws), measure, and record observations into rec. t is the trial index;
// rng is the trial's private generator, reseeded per trial from
// TrialSeed — draw from it directly (draws are naturally trial-local,
// no Split needed on the hot path). Nothing built in ws may be retained
// across trials.
type TrialFunc func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error

// FinishFunc runs after the trial loop to derive cell-level metrics
// from the accumulated streams (fractions of measurable trials,
// retention ratios, …).
type FinishFunc func(rec *Recorder) error

// TrialRun is what a TrialSetup returns: the mandatory per-trial
// measurement and an optional post-loop finisher.
type TrialRun struct {
	Trial  TrialFunc
	Finish FinishFunc
}

// TrialSetup prepares one cell: validate the cell's domain, measure
// fault-free baselines (recording them as constants), and return the
// TrialRun. rng is the cell's setup generator — independent of every
// trial stream — and may be Split freely. Setup runs once per cell,
// so per-cell allocation here is fine; the returned TrialFunc is the
// hot path.
type TrialSetup func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error)

// Measure is one registered measure: the one table entry that owns
// every way the engine can run it. Trials is mandatory — the
// independent trial path every measure has; Coupled is the optional
// coupled-rate implementation (an execution strategy for the same
// observable, not a new one); Sampled declares that Trials understands
// Cell.Precision and implements the sampled tier.
type Measure struct {
	Trials  TrialSetup
	Coupled CoupledSetup
	Sampled bool
}

// regMu guards registry.
var regMu sync.Mutex

// registry maps every measure name to its Measure — the one table a
// grid's measure axis, rate mode and precision tier resolve against.
var registry = map[string]Measure{}

// Register adds a measure to the table: the engine wraps m.Trials in
// the standard per-trial loop (RunTrials) and metric rendering
// (Recorder.Metrics). Duplicate names panic (a wiring bug).
func Register(name string, m Measure) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("sweep: duplicate measure " + name)
	}
	registry[name] = m
}

func lookup(name string) (Measure, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	m, ok := registry[name]
	return m, ok
}

// LookupTrials returns the registered TrialSetup for a measure, for
// the engine and for callers (benchmarks, tests) that drive the bare
// trial path without a job.
func LookupTrials(name string) (TrialSetup, bool) {
	m, ok := lookup(name)
	return m.Trials, ok
}

// measureNames returns the registered names whose entry passes keep,
// sorted.
func measureNames(keep func(Measure) bool) []string {
	regMu.Lock()
	defer regMu.Unlock()
	var out []string
	for name, m := range registry {
		if keep(m) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Measures returns the registered measure names, sorted.
func Measures() []string { return measureNames(func(Measure) bool { return true }) }

// recorderPool recycles Recorders across cells: a pooled recorder's
// name slots survive Reset, so a worker grinding through cells of the
// same measure re-finds its slots instead of re-allocating the map and
// streams per cell. Which recorder a cell draws never affects output —
// Reset clears every observation and constant.
var recorderPool = sync.Pool{New: func() any { return NewRecorder() }}

// RunTrials owns the per-trial loop: for t in [0, c.Trials) it reseeds
// one pre-owned generator from TrialSeed(c.Seed, t) and invokes fn. The
// loop body performs no allocation of its own (the trial generator
// lives in rec, pre-allocated), so a TrialFunc that routes everything
// through ws keeps the steady-state trial path allocation-free.
func RunTrials(c Cell, ws *graph.Workspace, rec *Recorder, fn TrialFunc) error {
	return RunTrialsRange(c, ws, rec, fn, 0, c.Trials)
}

// RunTrialsRange drives trials t in [lo, hi) of the cell's [0, Trials)
// loop — the trial-parallel block body. Trial t's generator is reseeded
// from TrialSeed(c.Seed, t) exactly as in the full loop, so the block
// partition changes only which accumulator a trial folds into, never
// the trial's own draws. The range body allocates nothing, like
// RunTrials.
func RunTrialsRange(c Cell, ws *graph.Workspace, rec *Recorder, fn TrialFunc, lo, hi int) error {
	rng := &rec.trialRNG
	for t := lo; t < hi; t++ {
		rng.Reseed(TrialSeed(c.Seed, t))
		if err := fn(t, ws, rng, rec); err != nil {
			return err
		}
	}
	return nil
}

// Recorder accumulates one cell's per-trial observations (streaming —
// no per-trial buffers) and per-cell constants, and renders them into
// the cell's metric map. Observe on an already-seen name performs no
// allocation, which keeps the warm trial loop allocation-free.
type Recorder struct {
	idx     map[string]int
	names   []string
	streams []stats.Stream
	consts  map[string]float64
	// trialRNG is the pre-owned generator RunTrials reseeds per trial;
	// living here (not on RunTrials' stack) it never escapes per call.
	trialRNG xrand.RNG
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{idx: map[string]int{}, consts: map[string]float64{}}
}

// Reset empties the recorder for reuse, keeping its capacity.
func (r *Recorder) Reset() {
	for i := range r.streams {
		r.streams[i].Reset()
	}
	// Keep idx/names: the same measure observes the same names, so the
	// steady state re-finds its slots without rehashing the strings in.
	for k := range r.consts {
		delete(r.consts, k)
	}
}

// Observe folds one per-trial observation into the stream for base
// metric name. The rendered metrics gain name_mean, name_std, name_min,
// and name_max.
func (r *Recorder) Observe(name string, v float64) {
	i, ok := r.idx[name]
	if !ok {
		i = len(r.streams)
		r.idx[name] = i
		r.names = append(r.names, name)
		r.streams = append(r.streams, stats.Stream{})
	}
	r.streams[i].Add(v)
}

// Const records a per-cell scalar (a fault-free baseline, a theorem
// constant) emitted under its exact name, with no companions.
func (r *Recorder) Const(name string, v float64) { r.consts[name] = v }

// MergeFrom folds another recorder's accumulated observations and
// constants into r (stats.Stream.Merge per base metric) — the
// block-fold step of trial-parallel execution. The caller fixes the
// merge order (block-index order), which is what pins the merged
// _mean/_std values to the block partition instead of the schedule.
// Constants overwrite: blocks of one cell replay the same
// deterministic setup, so their constants are identical. Name slots
// with no observations (pooled-recorder residue) are skipped.
func (r *Recorder) MergeFrom(o *Recorder) {
	for i, name := range o.names {
		if o.streams[i].N() == 0 && o.streams[i].Nonfinite() == 0 {
			continue
		}
		j, ok := r.idx[name]
		if !ok {
			j = len(r.streams)
			r.idx[name] = j
			r.names = append(r.names, name)
			r.streams = append(r.streams, stats.Stream{})
		}
		r.streams[j].Merge(o.streams[i])
	}
	for k, v := range o.consts {
		r.consts[k] = v
	}
}

// Count returns how many observations base metric name has received —
// the denominator for "fraction of trials that were measurable".
func (r *Recorder) Count(name string) int {
	if i, ok := r.idx[name]; ok {
		return int(r.streams[i].N())
	}
	return 0
}

// Stream returns a copy of the accumulator for base metric name (the
// zero Stream if never observed), for finishers that need a moment the
// companions don't carry.
func (r *Recorder) Stream(name string) stats.Stream {
	if i, ok := r.idx[name]; ok {
		return r.streams[i]
	}
	return stats.Stream{}
}

// Metrics renders the recorder into a flat metric map: every observed
// base name expands to its _mean/_std/_min/_max companions and every
// constant passes through unchanged. A name collision between a
// companion and a constant is a measure bug and errors out loudly.
func (r *Recorder) Metrics() (map[string]float64, error) {
	out := make(map[string]float64, 4*len(r.names)+len(r.consts))
	for i, name := range r.names {
		s := &r.streams[i]
		if s.N() == 0 {
			continue
		}
		out[name+"_mean"] = s.Mean()
		out[name+"_std"] = s.Std()
		out[name+"_min"] = s.Min()
		out[name+"_max"] = s.Max()
	}
	for name, v := range r.consts {
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("metric name collision: constant %q clashes with a per-trial companion", name)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no metrics recorded")
	}
	return out, nil
}
