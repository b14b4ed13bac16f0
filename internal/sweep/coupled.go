package sweep

// The coupled-sampling rate mode. In the default (independent) mode
// every grid cell draws its own fault realizations, so a rate axis of R
// points costs R full measurement passes per trial. Coupled mode
// exploits a standard coupling: draw ONE uniform per element (node or
// edge) per trial and declare the element surviving at rate r iff its
// draw ≥ r. Marginally each element still fails independently with
// probability r, but across the axis the fault sets are now *monotone*
// in r — lowering the rate only resurrects elements — so a union-find
// measure can walk the rates from highest to lowest, activating elements
// incrementally, and harvest the entire axis in a single O((n+m)·α(n))
// pass per trial. As a bonus the curves are variance-coupled: adjacent
// rates see the same realization, so per-trial curves are monotone and
// rate-to-rate noise cancels in differences.
//
// The unit of work becomes the cell *group* — a (family, measure, model)
// triple covering every rate of the grid. Because Cells() expands rates
// innermost, a group is a contiguous run of the cell sequence, and
// emitting groups in order reproduces exactly the independent cell
// order. Each rate still gets its own Result (same coordinates, same
// Seed), rendered by foldBlocks as a one-block cell, so downstream
// tooling (agg, plots, resume scanners) sees the identical record
// schema. A measure opts in through its Measure.Coupled entry.

import (
	"fmt"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// CoupledTrialFunc measures ONE coupled fault realization across every
// rate of the group. crng is the trial's coupling stream — the one
// uniform per element must come from it, in element order, so the same
// draws serve every rate. mrngs[ri] is the measurement stream for rate
// position ri, reseeded from that rate-cell's own trial seed (so any
// extra randomness a measure spends — cut-finder restarts, sampling —
// stays per-rate reproducible), and recs[ri] is rate position ri's
// recorder. Nothing built in ws may be retained across trials.
type CoupledTrialFunc func(t int, ws *graph.Workspace, crng *xrand.RNG, mrngs []*xrand.RNG, recs []*Recorder) error

// CoupledRun is what a CoupledSetup returns: the mandatory per-trial
// sweep and an optional per-rate finisher.
type CoupledRun struct {
	Trial CoupledTrialFunc
	// Finish runs once per rate position after the trial loop, to derive
	// cell-level metrics from rate position ri's accumulated streams.
	Finish func(ri int, rec *Recorder) error
}

// CoupledSetup prepares one coupled cell group: cells holds the group's
// rate cells in grid order (same family, measure, model; one per rate),
// recs one recorder per rate. rng is the group's setup generator —
// baselines measured here amortize over the whole axis instead of being
// recomputed per rate cell. Setup runs once per group; the returned
// trial function is the hot path.
type CoupledSetup func(g *graph.Graph, cells []Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*Recorder) (CoupledRun, error)

// LookupCoupled returns the registered coupled setup for a measure.
func LookupCoupled(name string) (CoupledSetup, bool) {
	m, _ := lookup(name)
	return m.Coupled, m.Coupled != nil
}

// CoupledMeasures returns the measures with a coupled implementation,
// sorted.
func CoupledMeasures() []string {
	return measureNames(func(m Measure) bool { return m.Coupled != nil })
}

// runCoupledGroup executes one coupled cell group on the worker's
// workspace and returns one Result per rate cell, in grid order. A
// setup or trial failure (error or panic) fails every rate; after the
// trial loop each rate's recorder and finisher go through foldBlocks as
// a one-block cell, so a finisher fails only its own rate's record.
func runCoupledGroup(g *graph.Graph, cells []Cell, ws *graph.Workspace, groupSeed uint64) []*Result {
	recs := make([]*Recorder, len(cells))
	for i := range recs {
		recs[i] = recorderPool.Get().(*Recorder)
		recs[i].Reset()
	}
	run, errMsg := runCoupledTrials(g, cells, ws, groupSeed, recs)
	out := make([]*Result, len(cells))
	for ri, c := range cells {
		b := &blockOut{rec: recs[ri], errMsg: errMsg, n: g.N(), m: g.M()}
		if errMsg == "" && run.Finish != nil {
			b.finish = func(rec *Recorder) error { return run.Finish(ri, rec) }
		}
		out[ri] = foldBlocks(c, []*blockOut{b})
	}
	return out
}

// runCoupledTrials runs the group's setup and trial loop into recs,
// containing panics like runTrialBlock. A non-empty errMsg fails the
// whole group.
func runCoupledTrials(g *graph.Graph, cells []Cell, ws *graph.Workspace, groupSeed uint64, recs []*Recorder) (run CoupledRun, errMsg string) {
	defer func() {
		if p := recover(); p != nil {
			errMsg = fmt.Sprintf("panic: %v", p)
		}
	}()
	setup, ok := LookupCoupled(cells[0].Measure)
	if !ok {
		return run, fmt.Sprintf("measure %q has no coupled implementation", cells[0].Measure)
	}
	run, err := setup(g, cells, ws, xrand.New(xrand.SeedFor(groupSeed, "setup")), recs)
	if err != nil {
		return run, err.Error()
	}
	if run.Trial == nil {
		return run, "coupled measure returned no trial function"
	}
	var crng xrand.RNG
	mr := make([]xrand.RNG, len(cells))
	mrngs := make([]*xrand.RNG, len(cells))
	for i := range mr {
		mrngs[i] = &mr[i]
	}
	for t := 0; t < cells[0].Trials; t++ {
		crng.Reseed(xrand.SeedAt(groupSeed, uint64(t)))
		for ri, c := range cells {
			mrngs[ri].Reseed(TrialSeed(c.Seed, t))
		}
		if err := run.Trial(t, ws, &crng, mrngs, recs); err != nil {
			return run, err.Error()
		}
	}
	return run, ""
}
