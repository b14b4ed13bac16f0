package main

// The four workloads and the untraced passes that time them. Each
// workload drives the engine through a different unit of work — plain
// cells, coupled rate groups, trial blocks, and a fleet job stream — so
// a change to one layer shows on the workload that exercises it and as
// "no change" on one that bypasses it.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"faultexp/internal/sweep"
)

// workload is one named input set. Specs builds its grid specs from the
// seed; the program under test only ever sees these JSON documents.
type workload struct {
	Name  string
	Why   string
	Fleet bool
	Specs func(seed uint64, smoke bool) ([][]byte, error)
}

var workloads = []*workload{
	{
		Name: "cheap-cells",
		Why:  "192 plain gamma/shatter cells of 128 trials: fault injection dominates, and per-trial overhead on the plain-cell path shows",
		Specs: func(seed uint64, smoke bool) ([][]byte, error) {
			return cheapGrid(seed, smoke, []string{"gamma", "shatter"}, "")
		},
	},
	{
		Name: "cheap-coupled",
		Why:  "the same grid as coupled rate groups: union-find passes that never call fault injection, so a faults-layer gain must read as no change",
		Specs: func(seed uint64, smoke bool) ([][]byte, error) {
			return cheapGrid(seed, smoke, []string{"percolation", "shatter"}, sweep.RateModeCoupled)
		},
	},
	{
		Name:  "prune-blocks",
		Why:   "prune/prune2 trial blocks: the cut-finding kernels dominate and few heavy units leave a scheduling tail",
		Specs: pruneBlocks,
	},
	{
		Name:  "fleet-overlap",
		Why:   "5 overlapping jobs through a loopback coordinator and 2 cached workers: transport, store and cache costs are visible",
		Fleet: true,
		Specs: fleetOverlap,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// gridJSON fills in the families of s from a family token list and
// encodes the spec as a user would write it in a -spec file.
func gridJSON(s sweep.Spec, families string) ([]byte, error) {
	fams, err := sweep.ParseFamilies(families)
	if err != nil {
		return nil, err
	}
	s.Families = fams
	return json.Marshal(&s)
}

// cheapGrid is the grid of cheap-cells and cheap-coupled. A pass takes
// under a second, so a run's medians are taken over dozens of passes and
// a few seconds of contention from the rest of the host move them little.
func cheapGrid(seed uint64, smoke bool, measures []string, rateMode string) ([][]byte, error) {
	fams, trials := "torus:32x32,hypercube:10,expander:32,rr:1024x4,smallworld:1024x4:100,debruijn:10", 128
	if smoke {
		fams, trials = "torus:8x8,hypercube:6,expander:8,rr:64x4,smallworld:64x4:8,debruijn:6", 16
	}
	b, err := gridJSON(sweep.Spec{
		Measures: measures,
		Models:   []string{sweep.ModelIIDNode, sweep.ModelIIDEdge},
		Rates:    []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4},
		Trials:   trials,
		Seed:     seed,
		RateMode: rateMode,
	}, fams)
	return [][]byte{b}, err
}

// pruneBlocks splits each cell's 8 trials into 2 blocks of 4: 36 units,
// a pass of about three seconds, so a run still has ten passes or so.
func pruneBlocks(seed uint64, smoke bool) ([][]byte, error) {
	fams := "torus:32x32,hypercube:10,expander:32"
	if smoke {
		fams = "torus:8x8,hypercube:6,expander:8"
	}
	b, err := gridJSON(sweep.Spec{
		Measures:      []string{"prune", "prune2"},
		Models:        []string{sweep.ModelIIDNode},
		Rates:         []float64{0.01, 0.02, 0.05},
		Trials:        8,
		Seed:          seed,
		TrialParallel: true,
		TrialBlock:    4,
	}, fams)
	return [][]byte{b}, err
}

// fleetOverlap slides a 4-rate window down over 8 rates, one job per
// step, so each job after the first finds 3 of its 4 rates already
// cached: 120 cells, 72 of them cache hits. Each job's first cell (the
// window's new lowest rate, λ₂ first) is a miss, so its time to first
// record is a computed cell behind the fabric rather than a few
// milliseconds of loopback latency, which swings widely run to run.
// Eight trials keep a pass to a second or two, for the same reason as
// cheapGrid's trial count.
func fleetOverlap(seed uint64, smoke bool) ([][]byte, error) {
	fams, trials := "torus:24x24,hypercube:9,expander:24", 8
	if smoke {
		fams, trials = "torus:6x6,hypercube:5,expander:6", 4
	}
	rates := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}
	var out [][]byte
	for k := len(rates) - 4; k >= 0; k-- {
		b, err := gridJSON(sweep.Spec{
			Measures: []string{"lambda2", "gamma"},
			Models:   []string{sweep.ModelIIDNode},
			Rates:    rates[k : k+4],
			Trials:   trials,
			Seed:     seed,
			Workers:  1,
		}, fams)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// passOut is what one pass over a workload's specs produced.
type passOut struct {
	// wall runs from the first submit to the last record of the last
	// job; setup is the fleet start-up before it (zero for direct runs).
	wall, setup, cpu time.Duration
	// ttfr and jobWalls hold each job's time from submit to its first
	// and to its last record.
	ttfr, jobWalls []time.Duration
	// out holds each job's output bytes; expect each job's cell count.
	out    [][]byte
	expect []int
	// failedJobs counts fleet jobs that failed or came back short.
	failedJobs int
	// workers is how many pool workers computed the cells.
	workers int
	// shards and storeBytes describe a fleet pass: shards dispatched,
	// and the coordinator store's size once the last job finished.
	shards     int
	storeBytes int64
}

func (p *passOut) cells() int {
	n := 0
	for _, e := range p.expect {
		n += e
	}
	return n
}

// digest hashes every job's output, in order, into one SHA-256.
func (p *passOut) digest() string {
	h := sha256.New()
	for _, b := range p.out {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// records decodes a JSONL output into its records.
func records(b []byte) ([]sweep.Result, error) {
	var out []sweep.Result
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r sweep.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decoding record %d: %w", len(out), err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// directSetup is what a direct run does before its job can start: load
// and validate the spec and construct the job. (Opening the output file
// is left out: its cost is the file system's, not the program's.)
func directSetup(specJSON []byte) (time.Duration, error) {
	start := time.Now()
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err == nil {
		_, err = sweep.NewJob(spec, sweep.WithWriter(sweep.NewJSONL(io.Discard)))
	}
	return time.Since(start), err
}

// directPass runs one spec as a sweep.Job on a worker per CPU, writing
// JSONL to a temporary file, and reads the output back once it is done.
func directPass(ctx context.Context, specJSON []byte, dir string) (passOut, error) {
	var po passOut
	spec, err := sweep.Load(bytes.NewReader(specJSON))
	if err != nil {
		return po, err
	}
	f, err := os.CreateTemp(dir, "pass-*.jsonl")
	if err != nil {
		return po, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var first time.Time
	job, err := sweep.NewJob(spec, sweep.WithWriter(sweep.NewJSONL(f)),
		sweep.WithProgress(func(done, _ int) {
			if done == 1 {
				first = time.Now()
			}
		}))
	if err != nil {
		return po, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	if err := job.Start(ctx); err != nil {
		return po, err
	}
	_, runErr := job.Wait()
	po.wall = time.Since(start)
	po.cpu = cpuTime() - cpu0
	po.jobWalls = []time.Duration{po.wall}
	po.workers = spec.Workers
	if po.workers == 0 {
		po.workers = runtime.GOMAXPROCS(0)
	}
	po.expect = []int{job.Cells()}
	if runErr != nil {
		// The records the job did not write count as failed cells.
		fmt.Fprintf(os.Stderr, "faultbench: job failed: %v\n", runErr)
	}
	if !first.IsZero() {
		po.ttfr = []time.Duration{first.Sub(start)}
	}
	if err := f.Close(); err != nil {
		return po, err
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		return po, err
	}
	po.out = [][]byte{out}
	return po, nil
}

// runPass runs every spec of the workload once, closed loop. A traced
// pass passes its tracer; an untraced one passes nil.
func runPass(ctx context.Context, w *workload, specs [][]byte, dir string, tr *tracer, parent int) (passOut, error) {
	if !w.Fleet {
		sp := tr.begin("sweep.job", parent)
		po, err := directPass(ctx, specs[0], dir)
		tr.end(sp)
		return po, err
	}
	// The fleet's directories are made and removed inside its set-up and
	// teardown spans, which then cover the whole pass with the jobs'.
	sp := tr.begin("fabric.setup", parent)
	fdir, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		tr.end(sp)
		return passOut{}, err
	}
	start := time.Now()
	fl, err := startFleet(ctx, fdir)
	setup := time.Since(start)
	tr.end(sp)
	if err != nil {
		os.RemoveAll(fdir)
		return passOut{}, err
	}
	po, err := fl.run(ctx, specs, tr, parent)
	po.setup = setup
	sp = tr.begin("fabric.teardown", parent)
	fl.stop()
	os.RemoveAll(fdir)
	tr.end(sp)
	return po, err
}

// setupOnce times one set-up of the workload: spec load and job
// construction for a direct run; store, cache, two workers and a
// coordinator, up and healthy, for the fleet.
func setupOnce(ctx context.Context, w *workload, specs [][]byte, dir string) (time.Duration, error) {
	if !w.Fleet {
		return directSetup(specs[0])
	}
	fdir, err := os.MkdirTemp(dir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(fdir)
	start := time.Now()
	fl, err := startFleet(ctx, fdir)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	fl.stop()
	return d, nil
}

// measure runs one workload untraced: one warm-up pass, then timed
// passes, each followed by a few timed set-ups, until the next pass
// would overrun the budget.
func measure(ctx context.Context, w *workload, cfg runConfig, dir string) (*report, error) {
	specs, err := w.Specs(cfg.Seed, cfg.smoke())
	if err != nil {
		return nil, err
	}
	rep := newReport(w, cfg)
	// The warm-up pass is checked but not timed.
	po, err := runPass(ctx, w, specs, dir, nil, -1)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := rep.tally(po); err != nil {
		return nil, err
	}
	// Set-up is timed in the warm process, spread over the whole run: a
	// direct set-up takes tens of microseconds, so set-ups run back to
	// back would all fall inside one burst of contention from the rest of
	// the host. Every fleet pass also times its own fleet start-up.
	setups := 40
	if w.Fleet || cfg.smoke() {
		setups = 1
	}
	minPasses := 3
	if cfg.smoke() {
		minPasses = 1
	}
	start := time.Now()
	var walls []float64
	for pass := 1; ; pass++ {
		po, err := runPass(ctx, w, specs, dir, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		if err := rep.tally(po); err != nil {
			return nil, err
		}
		cells := float64(po.cells())
		rep.sample("cells_per_s", cells/po.wall.Seconds())
		rep.sample("cpu_ms_per_cell", po.cpu.Seconds()*1e3/cells)
		for _, d := range po.ttfr {
			rep.sample("ttfr_s", d.Seconds())
		}
		if w.Fleet {
			rep.sample("setup_s", po.setup.Seconds())
		}
		for i := 0; i < setups; i++ {
			d, err := setupOnce(ctx, w, specs, dir)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			rep.sample("setup_s", d.Seconds())
		}
		walls = append(walls, po.wall.Seconds())
		if len(walls) >= minPasses && time.Since(start).Seconds()+median(walls) > cfg.Seconds {
			break
		}
	}
	rep.sample("peak_rss_mb", peakRSSMB())
	return rep, nil
}

// tally folds one pass into the report's counts and output checks:
// every pass must reproduce the first pass's bytes exactly, and rate-0
// cells must show an intact graph.
func (r *report) tally(po passOut) error {
	r.Attempted += po.cells()
	got := 0
	for i, b := range po.out {
		recs, err := records(b)
		if err != nil {
			return err
		}
		got += len(recs)
		for _, rec := range recs {
			if rec.Err != "" {
				r.Failed++
			}
		}
		if r.digest == "" {
			r.checkRateZero(recs, i)
		}
	}
	r.Failed += po.cells() - got
	d := po.digest()
	if r.digest == "" {
		r.digest = d
	}
	r.check("passes-byte-identical", d == r.digest, "pass output sha256 %s differs from the first pass's %s", d, r.digest)
	return nil
}

// checkRateZero asserts the fault-free invariants on every rate-0 record
// of one job's output.
func (r *report) checkRateZero(recs []sweep.Result, job int) {
	for _, rec := range recs {
		if rec.Rate != 0 || rec.Err != "" {
			continue
		}
		if v, ok := rec.Metrics["gamma_mean"]; ok {
			r.check("rate0-intact", v == 1, "job %d %s:%s %s rate 0: gamma_mean = %v, want 1", job, rec.Family, rec.Size, rec.Measure, v)
		}
		if v, ok := rec.Metrics["faults_mean"]; ok {
			r.check("rate0-intact", v == 0, "job %d %s:%s %s rate 0: faults_mean = %v, want 0", job, rec.Family, rec.Size, rec.Measure, v)
		}
	}
}

// resultBytes sums the sizes of the JSONL result files under root — a
// store's durable shard outputs, without its timestamped metadata.
func resultBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() || filepath.Ext(path) != ".jsonl" {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
