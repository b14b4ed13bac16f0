package faultexp_test

// The benchmark harness of deliverable (d): one benchmark per
// reproduction experiment (the paper has no numbered tables/figures —
// each theorem/claim maps to an experiment, see internal/experiments).
// Each benchmark regenerates the experiment's result tables in quick
// mode; run with
//
//	go test -bench=Experiment -benchmem
//
// and print the tables with
//
//	go run ./cmd/faultexp experiment all [-full]
//
// Additional micro-benchmarks cover the primitives each experiment
// leans on (expansion estimation, pruning, span, percolation sweeps).

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"faultexp"
	"faultexp/internal/cache"
	"faultexp/internal/experiments"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := harness.Config{Quick: true, Seed: uint64(20040627 + i)}
		rep := exp.Run(cfg)
		if rep == nil || len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// One benchmark per experiment (E1–E12).

func BenchmarkExperimentE1(b *testing.B)  { benchExperiment(b, "E1") }  // Theorem 2.1
func BenchmarkExperimentE2(b *testing.B)  { benchExperiment(b, "E2") }  // Claim 2.4
func BenchmarkExperimentE3(b *testing.B)  { benchExperiment(b, "E3") }  // Theorem 2.3
func BenchmarkExperimentE4(b *testing.B)  { benchExperiment(b, "E4") }  // Theorem 2.5
func BenchmarkExperimentE5(b *testing.B)  { benchExperiment(b, "E5") }  // Theorem 3.1
func BenchmarkExperimentE6(b *testing.B)  { benchExperiment(b, "E6") }  // Theorem 3.4
func BenchmarkExperimentE7(b *testing.B)  { benchExperiment(b, "E7") }  // Theorem 3.6 + Lemma 3.7
func BenchmarkExperimentE8(b *testing.B)  { benchExperiment(b, "E8") }  // §1.1 survey
func BenchmarkExperimentE9(b *testing.B)  { benchExperiment(b, "E9") }  // §4 dilation
func BenchmarkExperimentE10(b *testing.B) { benchExperiment(b, "E10") } // span predictor
func BenchmarkExperimentE11(b *testing.B) { benchExperiment(b, "E11") } // Upfal baseline
func BenchmarkExperimentE12(b *testing.B) { benchExperiment(b, "E12") } // Claim 3.2

// Extension experiments (E13–E19; see internal/experiments.All).

func BenchmarkExperimentE13(b *testing.B) { benchExperiment(b, "E13") } // §1.3 load balancing
func BenchmarkExperimentE14(b *testing.B) { benchExperiment(b, "E14") } // Leighton–Maggs baseline
func BenchmarkExperimentE15(b *testing.B) { benchExperiment(b, "E15") } // cut-finder ablation
func BenchmarkExperimentE16(b *testing.B) { benchExperiment(b, "E16") } // diameter vs expansion
func BenchmarkExperimentE17(b *testing.B) { benchExperiment(b, "E17") } // a.e. agreement
func BenchmarkExperimentE18(b *testing.B) { benchExperiment(b, "E18") } // routing congestion
func BenchmarkExperimentE19(b *testing.B) { benchExperiment(b, "E19") } // open span conjecture

// Sweep trial hot path: one cell with many trials through the real
// engine (registry lookup, fault injection, measurement, streaming),
// discarding the output. allocs/op here is the number the Workspace
// refactor is accountable to — see BENCH_sweep.json for the recorded
// trajectory.

type discardWriter struct{}

func (discardWriter) Write(*sweep.Result) error { return nil }
func (discardWriter) Flush() error              { return nil }

func benchSweepCell(b *testing.B, measure, model string, rate float64) {
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{measure},
		Model:    model,
		Rates:    []float64{rate},
		Trials:   32,
		Seed:     7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := runSweep(spec, discardWriter{}, faultexp.SweepJobWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if sum.Errors != 0 {
			b.Fatalf("%d cells errored", sum.Errors)
		}
	}
}

func BenchmarkSweepTrialGamma(b *testing.B) { benchSweepCell(b, "gamma", sweep.ModelIIDNode, 0.05) }
func BenchmarkSweepTrialGammaEdge(b *testing.B) {
	benchSweepCell(b, "gamma", sweep.ModelIIDEdge, 0.05)
}
func BenchmarkSweepTrialPrune(b *testing.B)  { benchSweepCell(b, "prune", sweep.ModelIIDNode, 0.02) }
func BenchmarkSweepTrialPrune2(b *testing.B) { benchSweepCell(b, "prune2", sweep.ModelIIDNode, 0.02) }
func BenchmarkSweepTrialSpan(b *testing.B)   { benchSweepCell(b, "span", sweep.ModelIIDNode, 0.05) }
func BenchmarkSweepTrialShatter(b *testing.B) {
	benchSweepCell(b, "shatter", sweep.ModelIIDNode, 0.05)
}

// Sampled-precision cell: the same engine path with the "sampled:k"
// tier selected, so the k-sweep frontier-BFS diameter kernel (instead
// of all-pairs BFS) is what the cell pays for.
func BenchmarkSweepTrialDiameterSampled(b *testing.B) {
	spec := &sweep.Spec{
		Families:  []sweep.FamilySpec{{Family: "torus", Size: "64x64"}},
		Measures:  []string{"diameter"},
		Model:     sweep.ModelIIDNode,
		Rates:     []float64{0.05},
		Trials:    32,
		Seed:      7,
		Precision: "sampled:4",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := runSweep(spec, discardWriter{}, faultexp.SweepJobWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if sum.Errors != 0 {
			b.Fatalf("%d cells errored", sum.Errors)
		}
	}
}

// Bare trial path: one op = ONE trial through the trial-grained layer
// (setup amortized away), with a warm workspace and recorder — the
// number the "steady-state trial path ≈ 0 allocs/op" acceptance
// criterion is measured on. The cell-level BenchmarkSweepTrial* above
// include per-cell setup (spec expansion, registry, baselines); these
// isolate what a sweep pays per additional -trials.

func benchTrialPath(b *testing.B, measure, model string, rate float64) {
	setup, ok := sweep.LookupTrials(measure)
	if !ok {
		b.Fatalf("measure %s is not trial-grained", measure)
	}
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{measure},
		Model:    model,
		Rates:    []float64{rate},
		Trials:   1,
		Seed:     7,
	}
	c := spec.Cells()[0]
	g, _, err := gen.FromFamily("torus", "16x16", 0, xrand.New(sweep.GraphSeed(spec.Seed, c.Family)))
	if err != nil {
		b.Fatal(err)
	}
	ws := graph.NewWorkspace()
	rec := sweep.NewRecorder()
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	if err != nil {
		b.Fatal(err)
	}
	// Warm pass: grow workspace buffers and recorder slots.
	if err := sweep.RunTrials(c, ws, rec, run.Trial); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep.RunTrials(c, ws, rec, run.Trial); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialPathGamma(b *testing.B) { benchTrialPath(b, "gamma", sweep.ModelIIDNode, 0.05) }
func BenchmarkTrialPathGammaEdge(b *testing.B) {
	benchTrialPath(b, "gamma", sweep.ModelIIDEdge, 0.05)
}
func BenchmarkTrialPathShatter(b *testing.B) {
	benchTrialPath(b, "shatter", sweep.ModelIIDNode, 0.05)
}
func BenchmarkTrialPathShatterEdge(b *testing.B) {
	benchTrialPath(b, "shatter", sweep.ModelIIDEdge, 0.05)
}
func BenchmarkTrialPathPrune(b *testing.B)  { benchTrialPath(b, "prune", sweep.ModelIIDNode, 0.02) }
func BenchmarkTrialPathPrune2(b *testing.B) { benchTrialPath(b, "prune2", sweep.ModelIIDNode, 0.02) }
func BenchmarkTrialPathPercolation(b *testing.B) {
	benchTrialPath(b, "percolation", sweep.ModelIIDNode, 0.05)
}
func BenchmarkTrialPathSpan(b *testing.B) { benchTrialPath(b, "span", sweep.ModelIIDNode, 0.05) }
func BenchmarkTrialPathLambda2(b *testing.B) {
	benchTrialPath(b, "lambda2", sweep.ModelIIDNode, 0.05)
}

// benchCoupledTrialPath is the coupled form of the bare trial path: one
// op = ONE coupled trial on torus:16x16 across an 8-rate axis, with a
// warm workspace and recorders, seeded as the engine seeds a group —
// what a coupled group pays per additional -trials.
func benchCoupledTrialPath(b *testing.B, measure, model string) {
	setup, ok := sweep.LookupCoupled(measure)
	if !ok {
		b.Fatalf("measure %s has no coupled implementation", measure)
	}
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{measure},
		Model:    model,
		Rates:    []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4},
		Trials:   1,
		Seed:     7,
		RateMode: sweep.RateModeCoupled,
	}
	cells := spec.Cells()
	f := cells[0].Family
	g, _, err := gen.FromFamily("torus", "16x16", 0, xrand.New(sweep.GraphSeed(spec.Seed, f)))
	if err != nil {
		b.Fatal(err)
	}
	ws := graph.NewWorkspace()
	recs := make([]*sweep.Recorder, len(cells))
	mrngs := make([]*xrand.RNG, len(cells))
	for i := range cells {
		recs[i] = sweep.NewRecorder()
		mrngs[i] = xrand.New(0)
	}
	groupSeed := sweep.CoupledGroupSeed(spec.Seed, f, measure, model)
	run, err := setup(g, cells, ws, xrand.New(xrand.SeedFor(groupSeed, "setup")), recs)
	if err != nil {
		b.Fatal(err)
	}
	crng := xrand.New(0)
	trial := func(t int) {
		crng.Reseed(xrand.SeedAt(groupSeed, uint64(t)))
		for ri, c := range cells {
			mrngs[ri].Reseed(sweep.TrialSeed(c.Seed, t))
		}
		if err := run.Trial(t, ws, crng, mrngs, recs); err != nil {
			b.Fatal(err)
		}
	}
	trial(0) // warm workspace buffers and recorder slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(i)
	}
}

func BenchmarkTrialPathCoupledPercolation(b *testing.B) {
	benchCoupledTrialPath(b, "percolation", sweep.ModelIIDNode)
}
func BenchmarkTrialPathCoupledShatterEdge(b *testing.B) {
	benchCoupledTrialPath(b, "shatter", sweep.ModelIIDEdge)
}

// BenchmarkTrialPathGammaBlocks is the blocked (trial-parallel) form of
// the bare trial path: the same 64 trials driven through RunTrialsRange
// in 16-trial blocks — what one worker pays per block under
// -trial-parallel. The alloc gate holds it to the same 0 allocs/op as
// the whole-loop path: blocking must not reintroduce per-trial
// allocation.
func BenchmarkTrialPathGammaBlocks(b *testing.B) {
	setup, ok := sweep.LookupTrials("gamma")
	if !ok {
		b.Fatal("gamma is not trial-grained")
	}
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{"gamma"},
		Model:    sweep.ModelIIDNode,
		Rates:    []float64{0.05},
		Trials:   64,
		Seed:     7,
	}
	c := spec.Cells()[0]
	g, _, err := gen.FromFamily("torus", "16x16", 0, xrand.New(sweep.GraphSeed(spec.Seed, c.Family)))
	if err != nil {
		b.Fatal(err)
	}
	ws := graph.NewWorkspace()
	rec := sweep.NewRecorder()
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	if err != nil {
		b.Fatal(err)
	}
	const block = 16
	pass := func() {
		for lo := 0; lo < c.Trials; lo += block {
			hi := lo + block
			if hi > c.Trials {
				hi = c.Trials
			}
			if err := sweep.RunTrialsRange(c, ws, rec, run.Trial, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // warm workspace buffers and recorder slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkJobWideCellParallel is the wide-cell scheduling scenario the
// trial-parallel mode exists for: ONE sampled cell whose trials are the
// only parallelism available. One op = a full trial-parallel job (graph
// build included) with block size 1, so every trial is its own
// schedulable unit. On a multi-core host this is the number that should
// scale with GOMAXPROCS; see BENCH_sweep.json for recorded runs.
func BenchmarkJobWideCellParallel(b *testing.B) {
	spec := &sweep.Spec{
		Families:      []sweep.FamilySpec{{Family: "torus", Size: "256x256"}},
		Measures:      []string{"diameter"},
		Model:         sweep.ModelIIDNode,
		Rates:         []float64{0.05},
		Trials:        8,
		Seed:          7,
		Precision:     "sampled:4",
		TrialParallel: true,
		TrialBlock:    1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := runSweep(spec, discardWriter{})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Errors != 0 {
			b.Fatalf("%d cells errored", sum.Errors)
		}
	}
}

// Micro-benchmarks for the primitives.

func BenchmarkPrimitiveNodeExpansion(b *testing.B) {
	g := faultexp.Torus(16, 16)
	rng := faultexp.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = faultexp.NodeExpansion(g, rng.Split())
	}
}

func BenchmarkPrimitivePrune(b *testing.B) {
	g := faultexp.Torus(12, 12)
	rng := faultexp.NewRNG(2)
	pat := faultexp.AdversarialFaults(g, 6, rng.Split())
	faulty := pat.Apply(g)
	alpha, _ := faultexp.NodeExpansion(g, rng.Split())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultexp.Prune(faulty.G, alpha.NodeAlpha, 0.5, rng.Split())
	}
}

func BenchmarkPrimitivePrune2(b *testing.B) {
	g := faultexp.Torus(12, 12)
	rng := faultexp.NewRNG(3)
	pat := faultexp.RandomNodeFaults(g, 0.02, rng.Split())
	faulty := pat.Apply(g)
	alphaE, _ := faultexp.EdgeExpansion(g, rng.Split())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultexp.Prune2(faulty.G, alphaE.EdgeAlpha, 0.125, rng.Split())
	}
}

func BenchmarkPrimitiveSampledSpan(b *testing.B) {
	g := faultexp.Torus(12, 12)
	rng := faultexp.NewRNG(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultexp.SampledSpan(g, 20, rng.Split())
	}
}

func BenchmarkPrimitivePercolationSweep(b *testing.B) {
	g := faultexp.Torus(32, 32)
	rng := faultexp.NewRNG(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultexp.PercolationCurve(g, faultexp.Site, 2, rng.Split())
	}
}

func BenchmarkPrimitiveLambda2(b *testing.B) {
	g := faultexp.Torus(24, 24)
	rng := faultexp.NewRNG(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultexp.Lambda2(g, rng.Split())
	}
}

func BenchmarkPrimitiveEmulate(b *testing.B) {
	g := faultexp.Torus(12, 12)
	rng := faultexp.NewRNG(7)
	pat := faultexp.RandomNodeFaults(g, 0.05, rng.Split())
	core := pat.Apply(g).LargestComponentSub()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb, err := faultexp.Emulate(g, core)
		if err != nil {
			b.Fatal(err)
		}
		_ = emb.Evaluate()
	}
}

// --- Result-cache benchmarks (see README "Result cache") ---

// BenchmarkCacheKeyHash: one op = deriving one cell's content address
// with a reused hasher — the per-cell overhead every cached run pays up
// front for the whole grid. The acceptance gate is 0 allocs/op.
func BenchmarkCacheKeyHash(b *testing.B) {
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{"gamma"},
		Model:    sweep.ModelIIDNode,
		Rates:    []float64{0.05},
		Trials:   32,
		Seed:     7,
	}
	c := spec.Cells()[0]
	var h cache.Hasher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sweep.CellCacheKey(&h, spec.RateMode, c)
	}
}

// cacheBenchSpec is the grid the hit/cold-path benchmarks run: real
// measures, enough cells that scheduling matters, small enough that one
// cold op is affordable.
func cacheBenchSpec() *sweep.Spec {
	return &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}, {Family: "hypercube", Size: "6"}},
		Measures: []string{"gamma", "shatter"},
		Model:    sweep.ModelIIDNode,
		Rates:    []float64{0, 0.05, 0.1},
		Trials:   32,
		Seed:     7,
	}
}

func runCacheBenchJob(b *testing.B, rc *cache.Cache) *sweep.Job {
	j, err := sweep.NewJob(cacheBenchSpec(), sweep.WithWriter(discardWriter{}), sweep.WithCache(rc))
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		b.Fatal(err)
	}
	return j
}

// BenchmarkJobCacheHitPath: one op = a fully-warm job over the 12-cell
// grid — cache probe, verification, and ordered emit, no graph builds,
// no trials. Compare against BenchmarkJobCacheColdPath for the speedup
// a warm cache buys (the PR's ≥10× acceptance criterion).
func BenchmarkJobCacheHitPath(b *testing.B) {
	rc, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	runCacheBenchJob(b, rc) // cold fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := runCacheBenchJob(b, rc)
		if s := j.Snapshot(); s.CacheHits != int64(s.CellsTotal) {
			b.Fatalf("warm job: %d hits of %d cells", s.CacheHits, s.CellsTotal)
		}
	}
}

// BenchmarkJobCacheColdPath: the same grid with an always-empty cache —
// what the hit path saves. One op = a full cold run (graph builds +
// trials + write-back).
func BenchmarkJobCacheColdPath(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rc, err := cache.Open(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		j := runCacheBenchJob(b, rc)
		if s := j.Snapshot(); s.CacheMisses != int64(s.CellsTotal) {
			b.Fatalf("cold job: %d misses of %d cells", s.CacheMisses, s.CellsTotal)
		}
	}
}
