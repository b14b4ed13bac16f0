package main

// The sweep subcommand: run a declarative parameter grid (graph family ×
// fault model × fault rate × trials) and stream results as JSONL and/or
// CSV. The grid comes either from flags or from a JSON spec file; output
// is byte-identical for any -workers value (see internal/sweep).
//
// Execution rides the context-aware Job API: SIGINT/SIGTERM cancels the
// job's context, the pool drains at a cell boundary, the writer is
// flushed, and the command exits non-zero with a "resumable at cell K"
// message — the flushed JSONL prefix picks up with -resume, byte-
// identical to a run that was never interrupted.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"faultexp/internal/cache"
	"faultexp/internal/sweep"
)

// sweepCellHook, when non-nil, observes every emitted cell (even under
// -quiet). Tests use it to fire a SIGINT at a deterministic point
// mid-run.
var sweepCellHook func(done, total int)

func cmdSweep(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specFile := fs.String("spec", "", "JSON grid spec file (overrides the grid flags)")
	families := fs.String("families", "", "comma list of family:size[:k], e.g. torus:8x8,hypercube:6,smallworld:256x4:25")
	measures := fs.String("measures", "gamma", "comma list of measures: "+strings.Join(sweep.Measures(), "|"))
	model := fs.String("model", "", "single fault model (legacy form of -models)")
	models := fs.String("models", "", "comma list of fault models: "+strings.Join(sweep.Models(), "|")+" (default "+sweep.ModelIIDNode+")")
	rates := fs.String("rates", "", "comma list of fault rates in [0,1], e.g. 0,0.02,0.05,0.1")
	trials := fs.Int("trials", 3, "Monte-Carlo trials per cell")
	rateMode := fs.String("rate-mode", "", "rate-axis sampling: "+sweep.RateModeIndependent+" (default) or "+sweep.RateModeCoupled+" (one draw per element serves every rate; iid models and coupled-capable measures only)")
	trialParallel := fs.Bool("trial-parallel", false, "split each cell's trial loop into blocks and run blocks on the worker pool (output is byte-identical across -workers but differs from serial mode in the last ulp)")
	trialBlock := fs.Int("trial-block", 0, "trials per block under -trial-parallel (0 = default "+strconv.Itoa(sweep.DefaultTrialBlock)+"); the block size is part of the output's byte contract")
	precision := fs.String("precision", "", `measurement tier: "exact" (default) or "sampled:k" (k-sample kernels with error bars and raised size caps; sampled-capable measures: `+strings.Join(sweep.SampledMeasures(), ", ")+`)`)
	seed := fs.Uint64("seed", 1, "grid seed (per-cell seeds are hash-split from it)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); does not affect output bytes")
	shard := fs.String("shard", "", `run only shard i of m ("i/m", 0-based); reassemble with 'faultexp merge'`)
	jsonlOut := fs.String("jsonl", "", `JSONL output path ("-" = stdout; default stdout when -csv is unset)`)
	csvOut := fs.String("csv", "", `CSV output path ("-" = stdout)`)
	resume := fs.String("resume", "", "resume an interrupted run: verify this JSONL output against the grid and append only the missing cells (JSONL only; composes with -shard)")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory: cells already computed under identical parameters (and kernel version) emit their stored records without building a graph or running a trial; misses write back after computing (composes with -resume and -shard; output bytes are identical either way)")
	dryRun := fs.Bool("dry-run", false, "validate the spec and print the expanded cell/shard plan without executing")
	quiet := fs.Bool("quiet", false, "suppress the progress line on stderr")
	fs.Parse(args)

	spec, err := sweepSpecFromFlags(*specFile, *families, *measures, *model, *models, *rates, *rateMode, *precision, *trials, *seed, *trialParallel, *trialBlock)
	if err != nil {
		return err
	}
	var sh sweep.Shard
	if *shard != "" {
		if sh, err = sweep.ParseShard(*shard); err != nil {
			return err
		}
	}
	var rcache *cache.Cache
	if *cacheDir != "" {
		if rcache, err = cache.Open(*cacheDir); err != nil {
			return err
		}
	}
	if *dryRun {
		return printSweepPlan(spec, sh, rcache)
	}

	skip := 0
	var resumeFile *os.File
	if *resume != "" {
		if *csvOut != "" {
			return fmt.Errorf("-resume supports JSONL output only (re-derive CSV from the JSONL, e.g. with 'faultexp agg' or 'faultexp merge')")
		}
		if *jsonlOut != "" && *jsonlOut != *resume {
			return fmt.Errorf("-jsonl %q conflicts with -resume %q (resume appends to the resumed file)", *jsonlOut, *resume)
		}
		cells := spec.ShardCells(sh)
		resumeFile, err = os.OpenFile(*resume, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		st, err := sweep.ScanResume(resumeFile, cells)
		if err != nil {
			resumeFile.Close()
			return err
		}
		// Drop any mid-write partial record and position for append.
		if err := resumeFile.Truncate(st.Offset); err != nil {
			resumeFile.Close()
			return err
		}
		if _, err := resumeFile.Seek(st.Offset, io.SeekStart); err != nil {
			resumeFile.Close()
			return err
		}
		skip = st.Done
		if !*quiet {
			note := ""
			if st.Truncated {
				note = " (dropped a partial trailing record)"
			}
			fmt.Fprintf(os.Stderr, "resume: %d of %d cells already complete%s\n", st.Done, len(cells), note)
		}
	}

	// Default destination: JSONL on stdout.
	if *jsonlOut == "" && *csvOut == "" {
		*jsonlOut = "-"
	}
	var writers sweep.MultiWriter
	var outs outputs
	defer outs.close(&err)
	switch {
	case resumeFile != nil:
		outs = append(outs, resumeFile)
		writers = append(writers, sweep.NewJSONL(resumeFile))
	default:
		if *jsonlOut != "" {
			w, err := outs.open(*jsonlOut)
			if err != nil {
				return err
			}
			writers = append(writers, sweep.NewJSONL(w))
		}
		if *csvOut != "" {
			w, err := outs.open(*csvOut)
			if err != nil {
				return err
			}
			writers = append(writers, sweep.NewCSV(w))
		}
	}

	prefix := "sweep"
	if sh.Enabled() {
		prefix = "sweep[" + sh.String() + "]"
	}
	progress := func(done, total int) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells", prefix, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
		if sweepCellHook != nil {
			sweepCellHook(done, total)
		}
	}

	// SIGINT/SIGTERM cancels the job's context; the pool drains at a
	// cell boundary and the flushed JSONL prefix remains resumable.
	ctx, stop := signalContext(ctx)
	defer stop()

	job, err := sweep.NewJob(spec,
		sweep.WithWriter(writers),
		sweep.WithWorkers(*workers),
		sweep.WithShard(sh),
		sweep.WithSkipCells(skip),
		sweep.WithProgress(progress),
		sweep.WithCache(rcache),
	)
	if err != nil {
		return err
	}
	if err := job.Start(ctx); err != nil {
		return err
	}
	sum, err := job.Wait()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// The run was interrupted, not broken: report exactly where
			// the durable output stands and how to pick it up.
			done, total := skip+sum.Cells, skip+job.Cells()
			if !*quiet {
				fmt.Fprintln(os.Stderr)
			}
			resumePath := ""
			switch {
			case resumeFile != nil:
				resumePath = *resume
			case *jsonlOut != "" && *jsonlOut != "-":
				resumePath = *jsonlOut
			}
			if resumePath != "" {
				return fmt.Errorf("interrupted: %d of %d cells complete, resumable at cell %d — rerun with -resume %s",
					done, total, done, resumePath)
			}
			return fmt.Errorf("interrupted: %d of %d cells complete, resumable at cell %d (JSONL to a file enables -resume)",
				done, total, done)
		}
		return err
	}
	if rcache != nil && !*quiet {
		snap := job.Snapshot()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses\n", snap.CacheHits, snap.CacheMisses)
	}
	if sum.Errors > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d cells reported errors (see the err field)\n", sum.Errors, sum.Cells)
	}
	return nil
}

// printSweepPlan renders the -dry-run view: what the grid expands to
// and what this (possibly sharded) invocation would execute — without
// building a single graph. With -cache it additionally probes every
// cell and prints which ones a real run would emit from the cache.
func printSweepPlan(spec *sweep.Spec, sh sweep.Shard, rcache *cache.Cache) error {
	p, err := spec.Plan(sh)
	if err != nil {
		return err
	}
	fmt.Printf("dry run: grid expands to %d cells (%d trials total)\n", p.GridCells, p.GridCells*p.Trials)
	if sh.Enabled() {
		fmt.Printf("shard %s runs %d cells (%d trials)\n", sh, p.RunCells, p.RunTrials)
	}
	rateToks := make([]string, len(p.Rates))
	for i, r := range p.Rates {
		rateToks[i] = strconv.FormatFloat(r, 'g', -1, 64)
	}
	if p.Precision.Sampled {
		fmt.Printf("precision: %s (sampled kernels, raised size caps)\n", p.Precision)
	}
	if spec.TrialParallel {
		block := spec.TrialBlock
		if block == 0 {
			block = sweep.DefaultTrialBlock
		}
		fmt.Printf("trial-parallel: blocks of %d trials (the block size is part of the output's byte contract)\n", block)
	}
	fmt.Printf("families to build (%d):\n", len(p.Families))
	for _, fp := range p.FamilyPlans {
		if fp.Err != "" {
			fmt.Printf("  %-24s estimate unavailable: %s\n", fp.Token, fp.Err)
			continue
		}
		fits := "fits"
		if !fp.Fits {
			fits = "OVER BUDGET"
		}
		// cost is one cell's estimated relative weight (UnitCost), for
		// comparing families — not seconds.
		fmt.Printf("  %-24s n=%-12d m<=%-12d peak~%-8s cost~%-8s %s\n",
			fp.Token, fp.N, fp.M, humanBytes(fp.PeakBytes), humanCount(fp.CellCost), fits)
	}
	fmt.Printf("measures (%d): %s\n", len(p.Measures), strings.Join(p.Measures, ", "))
	fmt.Printf("models (%d): %s\n", len(p.Models), strings.Join(p.Models, ", "))
	fmt.Printf("rates (%d): %s\n", len(p.Rates), strings.Join(rateToks, ", "))
	fmt.Printf("trials/cell: %d  seed: %d\n", p.Trials, p.Seed)
	if rcache != nil {
		// Per-cell cache forecast: the same probe (key, verification,
		// coupled-group granularity) a real run performs, so "cached"
		// here is exactly the set of cells a warm run will not compute.
		cells := spec.ShardCells(sh)
		mask := spec.CachedMask(sh, rcache)
		hits := 0
		fmt.Printf("cells (%d):\n", len(cells))
		fmt.Printf("  %-4s %-24s %-12s %-12s %-10s %s\n", "idx", "family", "measure", "model", "rate", "cached")
		for i, c := range cells {
			mark := "-"
			if mask[i] {
				mark = "cached"
				hits++
			}
			fmt.Printf("  %-4d %-24s %-12s %-12s %-10s %s\n",
				i, c.Family.String(), c.Measure, c.Model,
				strconv.FormatFloat(c.Rate, 'g', -1, 64), mark)
		}
		fmt.Printf("%d/%d cells cached\n", hits, len(cells))
	}
	return nil
}

// humanCount renders a unitless score in the nearest decimal SI unit
// (1.5k, 2.3M) — the dry-run form of the scheduler's cost scores.
func humanCount(v float64) string {
	const unit = 1000
	if v < unit {
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
	div, exp := float64(unit), 0
	for n := v / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%c", v/div, "kMGTPE"[exp])
}

// humanBytes renders a byte count in the nearest binary unit.
func humanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}

// sweepSpecFromFlags assembles and validates the grid spec from either a
// JSON file or the individual grid flags. -rate-mode, -precision,
// -trial-parallel, and -trial-block compose with -spec: a non-default
// flag overrides the file's field.
func sweepSpecFromFlags(specFile, families, measures, model, models, rates, rateMode, precision string, trials int, seed uint64, trialParallel bool, trialBlock int) (*sweep.Spec, error) {
	if specFile != "" {
		f, err := os.Open(specFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		spec, err := sweep.Load(f)
		if err != nil {
			return nil, err
		}
		if rateMode != "" || precision != "" || trialParallel || trialBlock != 0 {
			if rateMode != "" {
				spec.RateMode = rateMode
			}
			if precision != "" {
				spec.Precision = precision
			}
			if trialParallel {
				spec.TrialParallel = true
			}
			if trialBlock != 0 {
				spec.TrialBlock = trialBlock
			}
			if err := spec.Validate(); err != nil {
				return nil, err
			}
		}
		return spec, nil
	}
	if families == "" {
		return nil, fmt.Errorf("need -families (or -spec); e.g. -families torus:8x8,hypercube:6")
	}
	if rates == "" {
		return nil, fmt.Errorf("need -rates (or -spec); e.g. -rates 0,0.02,0.05,0.1")
	}
	fams, err := sweep.ParseFamilies(families)
	if err != nil {
		return nil, err
	}
	rs, err := sweep.ParseRates(rates)
	if err != nil {
		return nil, err
	}
	var modelAxis []string
	switch {
	case models != "" && model != "":
		return nil, fmt.Errorf("use -models or -model, not both")
	case models != "":
		if modelAxis, err = sweep.ParseModels(models); err != nil {
			return nil, err
		}
	case model != "":
		modelAxis = []string{model}
	default:
		modelAxis = []string{sweep.ModelIIDNode}
	}
	var ms []string
	for _, m := range strings.Split(measures, ",") {
		if m = strings.TrimSpace(m); m != "" {
			ms = append(ms, m)
		}
	}
	spec := &sweep.Spec{
		Families:      fams,
		Measures:      ms,
		Models:        modelAxis,
		Rates:         rs,
		Trials:        trials,
		Seed:          seed,
		RateMode:      rateMode,
		Precision:     precision,
		TrialParallel: trialParallel,
		TrialBlock:    trialBlock,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
