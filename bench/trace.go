package main

// The traced pass. It runs the workload once through the program as it
// ships — a sweep.Job, or the loopback fleet — which is the reference
// output, then replays the same cells through each layer's public
// functions one call at a time: graph build, fault injection, measure
// setup and trials, fold, marshal, and for the fleet the cache key, get,
// verify and put. Every call is timed from here, so nothing outside this
// package changes. The replay draws exactly what the engine draws (same
// graph, setup and trial seeds), so each replayed record must match the
// engine's record for the same cell.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin, Parent is the index of the enclosing span (-1 for the
// root), and Job numbers the submitted job the call served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which lets untraced passes share the traced code.
type tracer struct {
	origin time.Time
	spans  []span
	job    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), End: -1, Parent: parent, Job: t.job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.origin))
	}
}

// rename relabels a span once the call's outcome is known.
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

func (t *tracer) setJob(k int) {
	if t != nil {
		t.job = k
	}
}

// validate checks that span 0 is the only root and that every other
// span has a known, earlier parent whose interval contains its own.
func (t *tracer) validate() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if i == 0 {
			if s.Parent != -1 {
				return fmt.Errorf("root span %s has parent %d", s.Name, s.Parent)
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
		}
		if p := t.spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	return nil
}

// writeSpans appends the spans to path as JSON lines tagged with the
// workload.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			ID       int    `json:"id"`
			span
		}{workload, i, s}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is one record the replay emitted, with the number of faulty
// elements its inject replays drew (-1 where no inject was replayed).
type replayed struct {
	res      *sweep.Result
	injected int
}

// replay re-executes cells layer by layer. It is single-threaded, so its
// spans never overlap and their self times add up to the pass.
type replay struct {
	tr     *tracer
	root   int
	unit   int // the current bench.unit span
	seed   uint64
	graphs map[string]*graph.Graph
	ws     *graph.Workspace
	injWs  *graph.Workspace
	rng    xrand.RNG
	buf    bytes.Buffer
	jw     *sweep.JSONLWriter

	jobs       [][]replayed
	culled     float64
	trials     int
	computed   int
	hits       int
	misses     int
	entryBytes int
}

func newReplay(tr *tracer, root int) *replay {
	r := &replay{tr: tr, root: root, ws: graph.NewWorkspace(), injWs: graph.NewWorkspace()}
	r.jw = sweep.NewJSONL(&r.buf)
	return r
}

// spec replays every cell of a direct-run spec, in cell order.
func (r *replay) spec(s *sweep.Spec) error {
	r.seed = s.Seed
	r.graphs = map[string]*graph.Graph{}
	cells := s.Cells()
	var out []replayed
	if s.Coupled() {
		per := len(s.Rates)
		for i := 0; i < len(cells); i += per {
			rs, err := r.group(cells[i : i+per])
			if err != nil {
				return err
			}
			out = append(out, rs...)
		}
	} else {
		for _, c := range cells {
			r.unit = r.tr.begin("bench.unit", r.root)
			rd, err := r.compute(c)
			if err == nil {
				_, err = r.marshal(rd.res)
			}
			r.tr.end(r.unit)
			if err != nil {
				return err
			}
			out = append(out, rd)
		}
	}
	r.jobs = append(r.jobs, out)
	return nil
}

// fleet replays what the fleet's workers do for each job in turn: probe
// the shared cache for every cell, emit verified hits, compute and write
// back misses. The cache starts empty, as the fleet's does.
func (r *replay) fleet(specs []*sweep.Spec, cacheDir string) error {
	rc, err := cache.Open(cacheDir)
	if err != nil {
		return err
	}
	var h cache.Hasher
	for k, s := range specs {
		r.tr.setJob(k)
		r.seed = s.Seed
		r.graphs = map[string]*graph.Graph{} // each worker job builds its own graphs
		var out []replayed
		for _, c := range s.Cells() {
			r.unit = r.tr.begin("bench.unit", r.root)
			rd, err := r.cached(rc, &h, s.RateMode, c)
			r.tr.end(r.unit)
			if err != nil {
				return err
			}
			out = append(out, rd)
		}
		r.jobs = append(r.jobs, out)
	}
	r.tr.setJob(0)
	return nil
}

func (r *replay) cached(rc *cache.Cache, h *cache.Hasher, rateMode string, c sweep.Cell) (replayed, error) {
	sp := r.tr.begin("cache.key", r.unit)
	key := sweep.CellCacheKey(h, rateMode, c)
	r.tr.end(sp)
	sp = r.tr.begin("cache.get", r.unit)
	payload, ok := rc.Get(key)
	r.tr.end(sp)
	if ok {
		r.tr.rename(sp, "cache.get_hit")
		r.hits++
		sp = r.tr.begin("cache.verify", r.unit)
		res, ok := sweep.CachedResult(payload, &c)
		r.tr.end(sp)
		if !ok {
			return replayed{}, fmt.Errorf("cache entry for cell %d does not verify", c.Index)
		}
		_, err := r.marshal(res)
		return replayed{res: res, injected: -1}, err
	}
	r.tr.rename(sp, "cache.get_miss")
	r.misses++
	rd, err := r.compute(c)
	if err != nil {
		return rd, err
	}
	line, err := r.marshal(rd.res)
	if err != nil || rd.res.Err != "" {
		return rd, err // error records are never cached
	}
	sp = r.tr.begin("cache.put", r.unit)
	err = rc.Put(key, line)
	r.tr.end(sp)
	r.entryBytes += len(line)
	return rd, err
}

// graph returns the family's graph, building it on first use with the
// grid's graph seed, as the engine does.
func (r *replay) graph(f sweep.FamilySpec) (*graph.Graph, error) {
	key := f.String()
	if g, ok := r.graphs[key]; ok {
		return g, nil
	}
	sp := r.tr.begin("gen.build", r.unit)
	g, _, err := gen.FromFamilyBudget(f.Family, f.Size, f.K, gen.DefaultBudget, xrand.New(sweep.GraphSeed(r.seed, f)))
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", key, err)
	}
	r.graphs[key] = g
	return g, nil
}

// compute replays one independent cell: per trial block (the whole
// trial range when the cell is not blocked) the measure's setup from
// the cell seed, then each trial, then the block fold.
func (r *replay) compute(c sweep.Cell) (replayed, error) {
	rd := replayed{}
	g, err := r.graph(c.Family)
	if err != nil {
		return rd, err
	}
	setup, ok := sweep.LookupTrials(c.Measure)
	if !ok {
		return rd, fmt.Errorf("measure %q is not trial-grained", c.Measure)
	}
	model, ok := faults.ModelByName(c.Model)
	if !ok {
		return rd, fmt.Errorf("unknown fault model %q", c.Model)
	}
	block := c.TrialBlock
	if block <= 0 || block >= c.Trials {
		block = c.Trials
	}
	var (
		recs    []*sweep.Recorder
		finish  sweep.FinishFunc
		cellErr error
	)
	for lo := 0; lo < c.Trials && cellErr == nil; lo += block {
		rec := sweep.NewRecorder()
		sp := r.tr.begin("experiments.setup", r.unit)
		run, err := setup(g, c, r.ws, xrand.New(c.Seed), rec)
		r.tr.end(sp)
		if err == nil && run.Trial == nil {
			err = errors.New("trial measure returned no trial function")
		}
		if err != nil {
			cellErr = err
			break
		}
		if lo == 0 {
			finish = run.Finish
		}
		n, err := r.trialRange(g, model, c, run.Trial, rec, lo, min(lo+block, c.Trials))
		rd.injected += n
		cellErr = err
		recs = append(recs, rec)
	}
	rd.res = r.fold(c, g, recs, finish, cellErr)
	r.computed++
	r.trials += c.Trials
	return rd, nil
}

// trialRange runs trials [lo, hi) of a cell. Before each trial it replays
// the fault model's Inject with the trial's own reseeded generator — the
// same draws the trial's first call makes — on a separate workspace, so
// fault injection is timed on its own.
func (r *replay) trialRange(g *graph.Graph, model faults.Model, c sweep.Cell, fn sweep.TrialFunc, rec *sweep.Recorder, lo, hi int) (injected int, err error) {
	name := "experiments.trial." + c.Measure
	for t := lo; t < hi; t++ {
		sp := r.tr.begin("faults.inject", r.unit)
		r.rng.Reseed(sweep.TrialSeed(c.Seed, t))
		_, nf := model.Inject(g, c.Rate, r.injWs, &r.rng)
		r.tr.end(sp)
		injected += nf
		sp = r.tr.begin(name, r.unit)
		err = sweep.RunTrialsRange(c, r.ws, rec, fn, t, t+1)
		r.tr.end(sp)
		if err != nil {
			return injected, err
		}
	}
	return injected, nil
}

// group replays one coupled rate group: one setup, then every coupled
// trial across the whole rate axis, then a fold per rate.
func (r *replay) group(cells []sweep.Cell) ([]replayed, error) {
	r.unit = r.tr.begin("bench.unit", r.root)
	defer r.tr.end(r.unit)
	c0 := cells[0]
	g, err := r.graph(c0.Family)
	if err != nil {
		return nil, err
	}
	setup, ok := sweep.LookupCoupled(c0.Measure)
	if !ok {
		return nil, fmt.Errorf("measure %q has no coupled implementation", c0.Measure)
	}
	recs := make([]*sweep.Recorder, len(cells))
	for i := range recs {
		recs[i] = sweep.NewRecorder()
	}
	gseed := sweep.CoupledGroupSeed(r.seed, c0.Family, c0.Measure, c0.Model)
	sp := r.tr.begin("experiments.setup", r.unit)
	run, err := setup(g, cells, r.ws, xrand.New(xrand.SeedFor(gseed, "setup")), recs)
	r.tr.end(sp)
	if err == nil && run.Trial == nil {
		err = errors.New("coupled measure returned no trial function")
	}
	mr := make([]xrand.RNG, len(cells))
	mrngs := make([]*xrand.RNG, len(cells))
	for i := range mr {
		mrngs[i] = &mr[i]
	}
	name := "experiments.trial." + c0.Measure
	for t := 0; err == nil && t < c0.Trials; t++ {
		sp := r.tr.begin(name, r.unit)
		r.rng.Reseed(xrand.SeedAt(gseed, uint64(t)))
		for ri, c := range cells {
			mr[ri].Reseed(sweep.TrialSeed(c.Seed, t))
		}
		err = run.Trial(t, r.ws, &r.rng, mrngs, recs)
		r.tr.end(sp)
	}
	out := make([]replayed, len(cells))
	for ri, c := range cells {
		var finish sweep.FinishFunc
		if err == nil && run.Finish != nil {
			finish = func(rec *sweep.Recorder) error { return run.Finish(ri, rec) }
		}
		out[ri] = replayed{res: r.fold(c, g, recs[ri:ri+1], finish, err), injected: -1}
		if _, merr := r.marshal(out[ri].res); merr != nil {
			return nil, merr
		}
		r.computed++
		r.trials += c.Trials
	}
	return out, nil
}

// fold merges a cell's block recorders in block order, runs the
// finisher and renders the metrics into the cell's record.
func (r *replay) fold(c sweep.Cell, g *graph.Graph, recs []*sweep.Recorder, finish sweep.FinishFunc, cellErr error) *sweep.Result {
	res := &sweep.Result{
		Family: c.Family.Family, Size: c.Family.Size, N: g.N(), M: g.M(),
		Measure: c.Measure, Model: c.Model, Rate: c.Rate, Trials: c.Trials,
		Seed: c.Seed, TrialBlock: c.TrialBlock,
	}
	if cellErr != nil {
		res.Err = cellErr.Error()
		return res
	}
	sp := r.tr.begin("sweep.fold", r.unit)
	acc := recs[0]
	for _, o := range recs[1:] {
		acc.MergeFrom(o)
	}
	var err error
	if finish != nil {
		err = finish(acc)
	}
	var metrics map[string]float64
	if err == nil {
		metrics, err = acc.Metrics()
	}
	r.tr.end(sp)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if s := acc.Stream("culled"); s.N() > 0 {
		r.culled += math.Round(s.Mean() * float64(s.N()))
	}
	// Non-finite values cannot be encoded; the engine drops them and
	// names them in Nonfinite.
	var dropped []string
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			dropped = append(dropped, k)
			delete(metrics, k)
		}
	}
	sort.Strings(dropped)
	res.Nonfinite = strings.Join(dropped, ",")
	res.Metrics = metrics
	if len(metrics) == 0 {
		res.Metrics, res.Err = nil, "no finite metrics"
	}
	return res
}

// marshal emits one record through a JSONL writer and returns its line
// without the newline (valid until the next marshal).
func (r *replay) marshal(res *sweep.Result) ([]byte, error) {
	sp := r.tr.begin("sweep.marshal", r.unit)
	n := r.buf.Len()
	err := r.jw.Write(res)
	if err == nil {
		err = r.jw.Flush()
	}
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	line := r.buf.Bytes()[n:]
	return line[:len(line)-1], nil
}

// traced runs one workload's traced pass: the engine's own run, then the
// replay, then the checks and the per-layer metrics.
func traced(ctx context.Context, w *workload, cfg runConfig, dir string) (*report, *tracer, error) {
	specs, err := w.Specs(cfg.Seed, cfg.smoke())
	if err != nil {
		return nil, nil, err
	}
	parsed := make([]*sweep.Spec, len(specs))
	for i, b := range specs {
		if parsed[i], err = sweep.Load(bytes.NewReader(b)); err != nil {
			return nil, nil, err
		}
	}
	rep := newReport(w, cfg)
	tr := newTracer()
	root := tr.begin("bench.pass", -1)
	po, err := runPass(ctx, w, specs, dir, tr, root)
	if err != nil {
		return nil, nil, err
	}
	// The reference records and the CPU they cost: the Job itself for a
	// direct run, a direct Job of each spec for the fleet.
	refs, refCPU := po.out, po.cpu
	if w.Fleet {
		refs, refCPU = nil, 0
		for k, b := range specs {
			tr.setJob(k)
			sp := tr.begin("sweep.job", root)
			d, err := directPass(ctx, b, dir)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			refs = append(refs, d.out[0])
			refCPU += d.cpu
		}
		tr.setJob(0)
	}
	rp := newReplay(tr, root)
	cpu0 := cpuTime()
	if w.Fleet {
		err = rp.fleet(parsed, filepath.Join(dir, "replay-cache"))
	} else {
		err = rp.spec(parsed[0])
	}
	replayCPU := cpuTime() - cpu0
	tr.end(root)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}

	if err := rep.tally(po); err != nil {
		return nil, nil, err
	}
	refCells := 0
	for k, ref := range refs {
		if w.Fleet {
			rep.check("fleet-equals-direct", bytes.Equal(po.out[k], ref),
				"job %d: fleet merged %d bytes differ from a direct Job's %d bytes", k, len(po.out[k]), len(ref))
		}
		want, err := records(ref)
		if err != nil {
			return nil, nil, err
		}
		refCells += len(want)
		rep.checkReplay(k, rp.jobs[k], want)
	}
	verr := tr.validate()
	rep.check("spans-well-formed", verr == nil, "%v", verr)
	rep.Layers = layerMetrics(tr, rp, po, refCPU, refCells, replayCPU)
	return rep, tr, nil
}

// checkReplay compares job k's replayed records with the engine's.
func (r *report) checkReplay(k int, got []replayed, want []sweep.Result) {
	r.check("replay-matches-job", len(got) == len(want), "job %d: replay emitted %d records, the job %d", k, len(got), len(want))
	for i := 0; i < len(got) && i < len(want); i++ {
		wr := &want[i]
		d := diffRecord(got[i].res, wr)
		r.check("replay-matches-job", d == "", "job %d cell %d (%s:%s %s %s rate %v): %s", k, i, wr.Family, wr.Size, wr.Measure, wr.Model, wr.Rate, d)
		if fm, ok := wr.Metrics["faults_mean"]; ok && got[i].injected >= 0 {
			want := fm * float64(wr.Trials)
			r.check("inject-replay-faithful", sameValue(float64(got[i].injected), want),
				"job %d cell %d: inject replays drew %d faults, the job's trials %v", k, i, got[i].injected, want)
		}
	}
}

// diffRecord describes how a replayed record differs from the engine's:
// identity and counts exactly, metric values to 1e-9 relative (integral
// values exactly).
func diffRecord(got, want *sweep.Result) string {
	switch {
	case got.Family != want.Family || got.Size != want.Size || got.Measure != want.Measure ||
		got.Model != want.Model || got.Rate != want.Rate:
		return fmt.Sprintf("replayed cell %s:%s %s %s rate %v", got.Family, got.Size, got.Measure, got.Model, got.Rate)
	case got.N != want.N || got.M != want.M || got.Trials != want.Trials || got.Seed != want.Seed || got.TrialBlock != want.TrialBlock:
		return fmt.Sprintf("n/m/trials/seed/block %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			got.N, got.M, got.Trials, got.Seed, got.TrialBlock, want.N, want.M, want.Trials, want.Seed, want.TrialBlock)
	case got.Err != want.Err:
		return fmt.Sprintf("err %q, want %q", got.Err, want.Err)
	case len(got.Metrics) != len(want.Metrics):
		return fmt.Sprintf("%d metrics, want %d", len(got.Metrics), len(want.Metrics))
	}
	for _, k := range want.MetricNames() {
		g, ok := got.Metrics[k]
		if !ok {
			return "missing metric " + k
		}
		if w := want.Metrics[k]; !sameValue(g, w) {
			return fmt.Sprintf("%s = %v, want %v", k, g, w)
		}
	}
	return ""
}

// sameValue compares two metric values: exactly when both are
// integral (counts), else to 1e-9 relative.
func sameValue(a, b float64) bool {
	if a == b {
		return true
	}
	if a == math.Trunc(a) && b == math.Trunc(b) {
		return false
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
