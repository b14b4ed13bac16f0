// Command faultexp is the command-line interface to the fault-expansion
// library: generate graph families, measure expansion and span, inject
// faults, run the pruning algorithms, sweep percolation curves, and
// reproduce the paper's experiments (E1–E19).
//
// Usage:
//
//	faultexp gen        -family torus -size 16x16 [-out g.txt]
//	faultexp stats      -family torus -size 16x16 | -in g.txt
//	faultexp expansion  -family hypercube -size 8 [-seed 1]
//	faultexp span       -family mesh -size 4x4 [-samples 100]
//	faultexp prune      -family torus -size 16x16 -faults 8 -alpha 0.25 -eps 0.5
//	faultexp prune2     -family torus -size 16x16 -p 0.001 -alphae 0.25 -eps 0.125
//	faultexp percolate  -family torus -size 32x32 -mode bond [-trials 20]
//	faultexp sweep      -families torus:8x8,hypercube:6 -measures gamma,prune2 -rates 0,0.02,0.05,0.1 [-jsonl out.jsonl] [-csv out.csv]
//	faultexp sweep      -spec grid.json -resume out.jsonl | -dry-run [-cache DIR]
//	faultexp serve      -addr 127.0.0.1:8080 [-max-active 2] [-cache DIR]
//	faultexp worker     -addr 127.0.0.1:8081 [-max-active 2] [-cache DIR]
//	faultexp coordinator -addr 127.0.0.1:8090 -workers host:8081,host:8082 -store jobs/
//	faultexp merge      -dir jobs/job-1 [-spec grid.json] | shard0.jsonl shard1.jsonl …
//	faultexp agg        -by family,rate out.jsonl [-csv summary.csv]
//	faultexp experiment E7 [-full] [-seed 42]
//	faultexp experiment all
//	faultexp version
//	faultexp list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"faultexp/internal/balance"
	"faultexp/internal/compact"
	"faultexp/internal/core"
	"faultexp/internal/cuts"
	"faultexp/internal/experiments"
	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/perc"
	"faultexp/internal/route"
	"faultexp/internal/span"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "expansion":
		err = cmdExpansion(os.Args[2:])
	case "span":
		err = cmdSpan(os.Args[2:])
	case "prune":
		err = cmdPrune(os.Args[2:])
	case "prune2":
		err = cmdPrune2(os.Args[2:])
	case "percolate":
		err = cmdPercolate(os.Args[2:])
	case "balance":
		err = cmdBalance(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "worker":
		err = cmdWorker(ctx, os.Args[2:])
	case "coordinator":
		err = cmdCoordinator(ctx, os.Args[2:])
	case "merge":
		err = cmdMerge(ctx, os.Args[2:])
	case "agg":
		err = cmdAgg(ctx, os.Args[2:])
	case "experiment":
		err = cmdExperiment(ctx, os.Args[2:])
	case "version", "-version", "--version":
		err = cmdVersion(os.Stdout)
	case "list":
		err = cmdList()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "faultexp: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultexp:", err)
		os.Exit(1)
	}
}

// signalContext derives the command's context, cancelled on SIGINT or
// SIGTERM so the long-running subcommands (sweep, serve, merge, agg,
// experiment) shut down gracefully — sweep drains its Job at a cell
// boundary and flushes a resumable prefix, serve stops accepting and
// cancels its jobs. After the first signal the handler uninstalls
// itself, so a second signal while draining kills the process the
// default way instead of being swallowed.
func signalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// ctxReader makes a streaming read loop interruptible: once the
// command's context is cancelled, the next Read fails, unwinding
// merge/agg promptly with a non-zero exit instead of grinding through
// the rest of a multi-gigabyte file.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, fmt.Errorf("interrupted: %w", err)
	}
	return c.r.Read(p)
}

// outputs collects the files a command writes so that it can close
// them all and report a failed Close: a write the OS reports only at
// close must not end in exit 0.
type outputs []io.Closer

// open opens an output destination flag's value: "-" is stdout, which
// is never closed, and anything else a created file that close closes.
func (o *outputs) open(path string) (io.Writer, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	*o = append(*o, f)
	return f, nil
}

// close closes every collected file. A command defers it on its named
// error result: a run that failed keeps its own error, and a run that
// succeeded returns the first Close error.
func (o *outputs) close(err *error) {
	for _, c := range *o {
		if cerr := c.Close(); cerr != nil && *err == nil {
			*err = cerr
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `faultexp — fault-tolerant network expansion toolkit (SPAA'04 reproduction)

commands:
  gen         generate a graph family and write it as an edge list
  stats       basic graph statistics (n, m, degrees, components, diameter)
  expansion   estimate node and edge expansion (exact for n ≤ 22)
  span        compute the span (exact small / sampled large)
  prune       adversarial faults + Prune (Theorem 2.1)
  prune2      random faults + Prune2 (Theorem 3.4)
  percolate   Newman–Ziff percolation sweep and threshold estimate
  balance     diffusion load-balancing rounds (§1.3 application)
  route       random-pairs routing congestion (§1.3 application)
  sweep       run a parameter grid (family × measure × model × rate) streaming JSONL/CSV
              (-resume picks up an interrupted run; -dry-run prints the plan;
              -cache DIR never recomputes a cell already computed under identical
              parameters; SIGINT/SIGTERM drains at a cell boundary, resumable prefix)
  serve       HTTP daemon over the sweep Job API: POST /v1/jobs, snapshot, stream, cancel
              (-cache DIR shares a result cache across jobs with single-flight dedup)
  worker      the serve surface enrolled in a fleet: advertises capacity and kernel
              version on GET /healthz, runs the chunks a coordinator dispatches
  coordinator fleet front-end: hands each job to -workers in chunks of its cell order,
              health-checks and re-dispatches unreceived cells, streams the records
              byte-identical to single-node; -store makes every job survive SIGKILL
  merge       reassemble 'sweep -shard i/m' JSONL outputs into the unsharded stream
              (-dir reads a complete shard-<i>-of-<m>.jsonl set, such as a job-store
              directory, which holds shard-0-of-1.jsonl)
  agg         group sweep JSONL records and emit summary tables (CSV/JSONL) for plotting
  experiment  run a reproduction experiment (E1–E19) or "all"
  version     print module version, VCS revision, and toolchain (also: faultexp -version)
  list        list experiments, graph families, sweep measures, and fault models

Run any command with -h for its flags.`)
}

// graphFlags adds the shared -family/-size/-in/-k flags to a FlagSet and
// returns a loader.
func graphFlags(fs *flag.FlagSet) func() (*graph.Graph, []int, error) {
	family := fs.String("family", "", "graph family: "+strings.Join(gen.FamilyNames(), "|"))
	size := fs.String("size", "", "family size, e.g. 16x16 (mesh/torus), 8 (hypercube), 256x4 (rr/gnp/smallworld: n x degree)")
	in := fs.String("in", "", "read graph from edge-list file instead of generating")
	k := fs.Int("k", 4, "family parameter: chain length (chain), rewired edges (smallworld), shortcut edges (shortcut)")
	seed := fs.Uint64("genseed", 1, "seed for randomized generators")
	return func() (*graph.Graph, []int, error) {
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			g, err := graph.Read(f)
			return g, nil, err
		}
		if *family == "" {
			return nil, nil, fmt.Errorf("need -family or -in")
		}
		return gen.FromFamily(*family, *size, *k, xrand.New(*seed))
	}
}

func cmdGen(args []string) (err error) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	load := graphFlags(fs)
	out := fs.String("out", "", `output file ("-" = stdout; default stdout)`)
	fs.Parse(args)
	g, _, err := load()
	if err != nil {
		return err
	}
	if *out == "" {
		*out = "-"
	}
	var outs outputs
	defer outs.close(&err)
	w, err := outs.open(*out)
	if err != nil {
		return err
	}
	return g.Write(w)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	load := graphFlags(fs)
	fs.Parse(args)
	g, _, err := load()
	if err != nil {
		return err
	}
	_, sizes := g.Components()
	fmt.Printf("vertices     %d\n", g.N())
	fmt.Printf("edges        %d\n", g.M())
	fmt.Printf("degree       min=%d avg=%.2f max=%d\n", g.MinDegree(), g.AvgDegree(), g.MaxDegree())
	fmt.Printf("components   %d (γ=%.4f)\n", len(sizes), g.GammaLargest())
	if g.N() > 0 {
		fmt.Printf("diameter     ≥ %d (double-sweep lower bound)\n", g.ApproxDiameter(0))
	}
	return nil
}

func cmdExpansion(args []string) error {
	fs := flag.NewFlagSet("expansion", flag.ExitOnError)
	load := graphFlags(fs)
	seed := fs.Uint64("seed", 1, "estimator seed")
	fs.Parse(args)
	g, _, err := load()
	if err != nil {
		return err
	}
	rng := xrand.New(*seed)
	opt := cuts.Options{RNG: rng}
	rn, exactN := cuts.EstimateNodeExpansion(g, opt)
	re, exactE := cuts.EstimateEdgeExpansion(g, opt)
	fmt.Printf("node expansion α  = %.6f  (witness |U|=%d, |Γ(U)|=%d, exact=%v)\n",
		rn.NodeAlpha, rn.Size, rn.Boundary, exactN)
	fmt.Printf("edge expansion αe = %.6f  (witness |U|=%d, cut=%d, exact=%v)\n",
		re.EdgeAlpha, re.Size, re.CutEdges, exactE)
	return nil
}

func cmdSpan(args []string) error {
	fs := flag.NewFlagSet("span", flag.ExitOnError)
	load := graphFlags(fs)
	samples := fs.Int("samples", 100, "compact-set samples for large graphs")
	seed := fs.Uint64("seed", 1, "sampling seed")
	fs.Parse(args)
	g, dims, err := load()
	if err != nil {
		return err
	}
	if g.N() <= compact.MaxEnumN {
		est := span.Exact(g)
		fmt.Printf("exact span σ = %.4f over %d compact sets (steiner exact=%v)\n",
			est.Sigma, est.Sets, est.Exact)
		fmt.Printf("witness: |P(U)|=%d, |Γ(U)|=%d, U=%v\n", est.TreeNodes, est.BoundaryNodes, est.ArgSet)
	} else {
		est := span.Sampled(g, *samples, xrand.New(*seed))
		fmt.Printf("sampled span σ ≥ %.4f over %d compact sets\n", est.Sigma, est.Sets)
		fmt.Printf("witness: |P(U)|=%d, |Γ(U)|=%d\n", est.TreeNodes, est.BoundaryNodes)
	}
	if len(dims) > 1 {
		p := span.FaultToleranceFromSpan(g.MaxDegree(), 2)
		fmt.Printf("mesh: Theorem 3.6 gives σ ≤ 2 → Theorem 3.4 tolerance p ≤ %.3g\n", p)
	}
	return nil
}

func cmdPrune(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	load := graphFlags(fs)
	f := fs.Int("faults", 4, "adversarial fault budget")
	alpha := fs.Float64("alpha", 0, "fault-free node expansion α (0 = measure)")
	eps := fs.Float64("eps", 0.5, "degradation ε (Theorem 2.1: ε = 1−1/k)")
	seed := fs.Uint64("seed", 1, "seed")
	adv := fs.String("adversary", "bottleneck", "adversary: bottleneck|random|degree")
	fs.Parse(args)
	if *f < 0 {
		return fmt.Errorf("-faults %d: must be at least 0", *f)
	}
	if !(*eps > 0 && *eps < 1) {
		return fmt.Errorf("-eps %g: must be in (0, 1)", *eps)
	}
	g, _, err := load()
	if err != nil {
		return err
	}
	rng := xrand.New(*seed)
	if *alpha == 0 {
		r, _ := cuts.EstimateNodeExpansion(g, cuts.Options{RNG: rng.Split()})
		*alpha = r.NodeAlpha
		fmt.Printf("measured α = %.4f\n", *alpha)
	}
	var adversary faults.Adversary
	switch *adv {
	case "bottleneck":
		adversary = faults.BottleneckAdversary{}
	case "random":
		adversary = faults.RandomAdversary{}
	case "degree":
		adversary = faults.DegreeAdversary{}
	default:
		return fmt.Errorf("unknown adversary %q", *adv)
	}
	pat := adversary.Select(g, *f, rng.Split())
	gf := pat.Apply(g)
	res := core.Prune(gf.G, *alpha, *eps, core.Options{Finder: cuts.Options{RNG: rng.Split()}})
	k := 1 / (1 - *eps)
	fmt.Printf("faults applied      %d (%s)\n", pat.Count(), *adv)
	fmt.Printf("survivor |H|        %d of %d\n", res.SurvivorSize(), g.N())
	fmt.Printf("culled              %d nodes in %d rounds\n", res.CulledTotal, res.Iterations)
	fmt.Printf("threshold α·ε       %.4f\n", res.Threshold)
	fmt.Printf("certified quotient  %.4f\n", res.CertifiedQuotient)
	fmt.Printf("Theorem 2.1 bound   |H| ≥ %.1f (feasible=%v)\n",
		core.Theorem21SizeBound(g.N(), pat.Count(), *alpha, k),
		core.Theorem21Feasible(g.N(), pat.Count(), *alpha, k))
	return nil
}

func cmdPrune2(args []string) error {
	fs := flag.NewFlagSet("prune2", flag.ExitOnError)
	load := graphFlags(fs)
	p := fs.Float64("p", 0.001, "node fault probability")
	alphaE := fs.Float64("alphae", 0, "fault-free edge expansion αe (0 = measure)")
	eps := fs.Float64("eps", 0, "degradation ε (0 = Theorem 3.4 maximum 1/(2δ))")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	if !(*p >= 0 && *p <= 1) {
		return fmt.Errorf("-p %g: must be in [0, 1]", *p)
	}
	if !(*eps >= 0) {
		return fmt.Errorf("-eps %g: must be at least 0", *eps)
	}
	g, _, err := load()
	if err != nil {
		return err
	}
	rng := xrand.New(*seed)
	if *alphaE == 0 {
		r, _ := cuts.EstimateEdgeExpansion(g, cuts.Options{RNG: rng.Split()})
		*alphaE = r.EdgeAlpha
		fmt.Printf("measured αe = %.4f\n", *alphaE)
	}
	if *eps == 0 {
		*eps = core.Theorem34MaxEps(g.MaxDegree())
		fmt.Printf("using ε = 1/(2δ) = %.4f\n", *eps)
	}
	pat := faults.IIDNodes(g, *p, rng.Split())
	gf := pat.Apply(g)
	res := core.Prune2(gf.G, *alphaE, *eps, core.Options{Finder: cuts.Options{RNG: rng.Split()}})
	fmt.Printf("faults              %d (p=%.4g)\n", pat.Count(), *p)
	fmt.Printf("survivor |H|        %d of %d (n/2 = %d)\n", res.SurvivorSize(), g.N(), g.N()/2)
	fmt.Printf("culled              %d nodes in %d rounds\n", res.CulledTotal, res.Iterations)
	fmt.Printf("threshold αe·ε      %.4f\n", res.Threshold)
	fmt.Printf("certified quotient  %.4f\n", res.CertifiedQuotient)
	fmt.Printf("Theorem 3.4 p-bound %.3g (σ=2 mesh assumption)\n",
		core.Theorem34MaxFaultProb(g.MaxDegree(), 2))
	return nil
}

func cmdPercolate(args []string) error {
	fs := flag.NewFlagSet("percolate", flag.ExitOnError)
	load := graphFlags(fs)
	mode := fs.String("mode", "site", "site|bond")
	trials := fs.Int("trials", 20, "Newman–Ziff sweep trials")
	target := fs.Float64("target", 0.2, "γ target for the threshold estimate")
	seed := fs.Uint64("seed", 1, "seed")
	points := fs.Int("points", 11, "curve points to print")
	fs.Parse(args)
	var m perc.Mode
	switch *mode {
	case "site":
		m = perc.Site
	case "bond":
		m = perc.Bond
	default:
		return fmt.Errorf("-mode %q: want site or bond", *mode)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: must be at least 1", *trials)
	}
	if *points < 2 {
		return fmt.Errorf("-points %d: must be at least 2", *points)
	}
	g, _, err := load()
	if err != nil {
		return err
	}
	rng := xrand.New(*seed)
	curve := perc.Sweep(g, m, *trials, rng)
	fmt.Printf("%s percolation on %v (%d trials)\n", m, g, *trials)
	fmt.Println("  p      γ")
	for i := 0; i < *points; i++ {
		p := float64(i) / float64(*points-1)
		fmt.Printf("  %.2f   %.4f\n", p, curve.AtP(p))
	}
	fmt.Printf("threshold estimate (γ ≥ %.2f): p* ≈ %.4f\n",
		*target, perc.CriticalPFromCurve(curve, *target))
	return nil
}

func cmdBalance(args []string) error {
	fs := flag.NewFlagSet("balance", flag.ExitOnError)
	load := graphFlags(fs)
	tol := fs.Float64("tol", 0.05, "target imbalance (max deviation from mean)")
	maxRounds := fs.Int("maxrounds", 1000000, "round budget")
	fs.Parse(args)
	g, _, err := load()
	if err != nil {
		return err
	}
	if g.N() == 0 {
		return fmt.Errorf("empty graph")
	}
	pt := balance.PointLoad(g.N(), 0, float64(g.N()))
	r := balance.RoundsToBalance(g, pt, *tol, *maxRounds)
	fmt.Printf("point load on node 0, %d units over %d nodes\n", g.N(), g.N())
	if r >= *maxRounds {
		fmt.Printf("did NOT reach imbalance ≤ %.3f within %d rounds\n", *tol, *maxRounds)
	} else {
		fmt.Printf("imbalance ≤ %.3f after %d diffusion rounds\n", *tol, r)
	}
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	load := graphFlags(fs)
	pairs := fs.Int("pairs", 500, "random source-destination pairs")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)
	g, _, err := load()
	if err != nil {
		return err
	}
	res := route.RandomPairs(g, *pairs, xrand.New(*seed))
	fmt.Printf("routed %d pairs (%d unreachable)\n", res.Pairs, res.Unreached)
	fmt.Printf("congestion        %d (%.4f per pair)\n", res.Congestion, res.CongestionPerPair())
	fmt.Printf("path length       avg %.2f, max %d\n", res.AvgLen(), res.MaxLen)
	return nil
}

func cmdExperiment(ctx context.Context, args []string) error {
	ctx, stop := signalContext(ctx)
	defer stop()
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	full := fs.Bool("full", false, "full problem sizes instead of quick")
	seed := fs.Uint64("seed", 20040627, "experiment seed")
	// The experiment ID may precede or follow the flags.
	var id string
	rest := args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id = args[0]
		rest = args[1:]
	}
	fs.Parse(rest)
	if id == "" && fs.NArg() > 0 {
		id = fs.Arg(0)
	}
	if id == "" {
		return fmt.Errorf("usage: faultexp experiment <E1..E19|all> [-full] [-seed N]")
	}
	cfg := harness.Config{Quick: !*full, Seed: *seed}
	var exps []*harness.Experiment
	if strings.EqualFold(id, "all") {
		exps = experiments.All()
	} else {
		e, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'faultexp list')", id)
		}
		exps = []*harness.Experiment{e}
	}
	failed := 0
	for _, e := range exps {
		// SIGINT/SIGTERM stops between experiments — the finished
		// reports already rendered, the exit is non-zero.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		fmt.Printf("running %s (%s)…\n", e.ID, e.PaperRef)
		rep := e.Run(cfg)
		rep.Render(os.Stdout)
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) had failing checks", failed)
	}
	return nil
}

func cmdList() error {
	for _, e := range experiments.All() {
		fmt.Printf("%-4s %-22s %s\n     expects: %s\n", e.ID, e.PaperRef, e.Title, e.Expectation)
	}
	fmt.Printf("\ngraph families (%d):\n", len(gen.Families()))
	for _, f := range gen.Families() {
		size := f.SizeSyntax()
		if f.KUse() != "" {
			size += "[:k]"
		}
		fmt.Printf("  %-11s %-13s %s\n", f.Name(), size, f.Doc())
	}
	fmt.Printf("\nsweep measures (%d): %s\n", len(sweep.Measures()), strings.Join(sweep.Measures(), ", "))
	fmt.Printf("fault models   (%d): %s\n", len(sweep.Models()), strings.Join(sweep.Models(), ", "))
	return nil
}
