package sweep

// The block layer: every independent cell runs as trial blocks. A
// serial cell is one block covering [0, Trials), folded into its Result
// on the worker that ran it. In trial-parallel mode a cell's loop
// splits into fixed-size blocks of Cell.TrialBlock trials; each block
// runs on a pool worker with its own Recorder, and the worker that
// finishes the cell's last block folds them all back together in
// block-index order via Recorder.MergeFrom / stats.Stream.Merge.
//
// The determinism contract: trial t's draws come from TrialSeed(c.Seed,
// t) whether the loop is whole or blocked, so every individual trial is
// bit-identical to the serial mode; only the *fold order* of the
// streaming moments changes, and that order is fixed by the block
// partition (Trials, TrialBlock), never by worker count or scheduling.
// Blocked output is therefore byte-identical across -workers values,
// shards, and resumes — but distinct from serial output in the last ulp
// of _mean/_std, which is why the mode is opt-in and records its
// partition on every Result (trial_block).
//
// Each block replays the cell's TrialSetup from the same setup seed
// (xrand.New(c.Seed)), so per-cell baselines and constants are
// recomputed identically per block; the setup cost is amortized over
// the block's trials.

import (
	"fmt"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// UnitCost scores the relative execution cost of running trials trials
// on a family with (estimated) n vertices and m edges at precision p —
// the gen.EstimateFamily-derived score `sweep -dry-run` prints per
// family. One trial of an exact kernel walks the graph at least once
// (≈ n + 2m work); sampled kernels repeat a linear-time pass k times.
// The score is relative and blind to how a measure's cost depends on
// the graph's shape: it sizes cells for a reader and does not predict
// seconds.
func UnitCost(n, m int64, trials int, p Precision) float64 {
	per := float64(n) + 2*float64(m)
	if p.Sampled {
		per *= float64(p.K)
	}
	return per * float64(trials)
}

// blockCount returns how many trial blocks a cell splits into.
func blockCount(trials, block int) int {
	if block <= 0 || block >= trials {
		return 1
	}
	return (trials + block - 1) / block
}

// blockOut is one trial block's computed state, carried from the worker
// that ran it to the worker that folds the cell's blocks into its
// Result.
type blockOut struct {
	// rec holds the block's accumulated streams and constants; the fold
	// owns it (merged then recycled to recorderPool).
	rec *Recorder
	// finish is the cell's post-loop finisher. Setup is deterministic,
	// so every block carries the same finisher; the fold runs the one
	// from the block that survives the merge, once, on the merged
	// recorder.
	finish FinishFunc
	// errMsg is the block's failure (setup error, trial error, panic).
	// The lowest-indexed failing block's message becomes the cell's
	// Err — the same error the serial loop would have stopped at when
	// the failure is deterministic in trial order.
	errMsg string
	// n, m snapshot the graph's size for the Result, so the fold never
	// needs the graph itself (it may already be released).
	n, m int
}

// runTrialBlock executes trials [lo, hi) of one cell: it replays the
// cell's TrialSetup (same c.Seed root for every block, so baselines and
// constants reproduce identically per block) and drives the block's
// slice of the trial loop into a private recorder. Panics are contained
// per block, so a single pathological cell cannot kill a grid.
func runTrialBlock(g *graph.Graph, c Cell, ws *graph.Workspace, lo, hi int) (out *blockOut) {
	out = &blockOut{n: g.N(), m: g.M()}
	rec := recorderPool.Get().(*Recorder)
	rec.Reset()
	out.rec = rec
	defer func() {
		if p := recover(); p != nil {
			out.errMsg = fmt.Sprintf("panic: %v", p)
			out.finish = nil
		}
	}()
	// Validate refuses unknown measures and models before a job starts;
	// these checks guard hand-built Cells in tests and tools, and let
	// trial functions call c.FaultModel() unchecked.
	setup, ok := LookupTrials(c.Measure)
	if !ok {
		out.errMsg = fmt.Sprintf("unknown measure %q", c.Measure)
		return out
	}
	if c.FaultModel() == nil {
		out.errMsg = fmt.Sprintf("sweep: unknown fault model %q", c.Model)
		return out
	}
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	if err != nil {
		out.errMsg = err.Error()
		return out
	}
	if run.Trial == nil {
		out.errMsg = "trial measure returned no trial function"
		return out
	}
	out.finish = run.Finish
	if err := RunTrialsRange(c, ws, rec, run.Trial, lo, hi); err != nil {
		out.errMsg = err.Error()
		out.finish = nil
	}
	return out
}

// foldBlocks renders a cell's blocks, given in block-index order, into
// its Result. Block 0 contributes the recorder, the finisher and the
// graph size; later blocks merge into that recorder in block-index
// order, so the fold order is fixed by the block partition, never by
// scheduling — the whole byte-determinism argument for trial-parallel
// mode. The first non-empty block error becomes the cell's Err. The
// finisher, metric rendering and non-finite filtering follow, under
// panic containment; every recorder is recycled whatever path returns.
func foldBlocks(c Cell, blocks []*blockOut) (res *Result) {
	first := blocks[0]
	rec, errMsg := first.rec, first.errMsg
	for _, b := range blocks[1:] {
		if errMsg == "" {
			errMsg = b.errMsg
		}
		rec.MergeFrom(b.rec)
		recorderPool.Put(b.rec)
	}
	res = newResult(c, first.n, first.m)
	defer func() {
		recorderPool.Put(rec)
		if p := recover(); p != nil {
			res.Metrics = nil
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	if errMsg != "" {
		res.Err = errMsg
		return res
	}
	if first.finish != nil {
		if err := first.finish(rec); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	metrics, err := rec.Metrics()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	finishResult(res, metrics)
	return res
}
