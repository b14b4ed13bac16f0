package main

// Reports, metric definitions, summary statistics, the machine stamp,
// and `compare`.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"faultexp/internal/sweep"
)

// metricDef names one metric with its unit and the direction that is an
// improvement. Bound, for end-to-end metrics, is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of faultexp sees. failed_frac
// (failed / attempted) is reported beside them; any increase in it is a
// regression. The bounds are wide because on a shared 2-vCPU machine
// the CPU time one cell costs drifts by ±10% over minutes and by up to
// 35% over an hour (see README.md); a tighter bound would flag that
// drift as a regression.
var endToEnd = []metricDef{
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "ttfr_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_cell", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is what the traced pass reports on its result line: every
// layer's work counts, and the timings every workload exercises, each
// with the direction an optimisation would move it.
var perLayer = []metricDef{
	{Name: "gen.builds", Unit: "count", Better: "lower"},
	{Name: "gen.build_ms", Unit: "ms", Better: "lower"},
	{Name: "faults.inject_calls", Unit: "count", Better: "lower"},
	{Name: "experiments.setup_calls", Unit: "count", Better: "lower"},
	{Name: "experiments.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.trial_us", Unit: "us", Better: "lower"},
	{Name: "experiments.culled", Unit: "count", Better: "lower"},
	{Name: "sweep.trials", Unit: "count", Better: "lower"},
	{Name: "sweep.fold_us", Unit: "us", Better: "lower"},
	{Name: "sweep.marshal_us", Unit: "us", Better: "lower"},
	{Name: "sweep.record_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sweep.first_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.head_wait_share", Unit: "share", Better: "lower"},
	{Name: "harness.parallel_eff", Unit: "share", Better: "higher"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.entry_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fabric.shards", Unit: "count", Better: "lower"},
	{Name: "fabric.store_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fabric.failed_jobs", Unit: "count", Better: "lower"},
}

// perLayerExtra are printed and written with -out but stay off the
// result line: timings of layers only some workloads reach (they read 0
// where a workload bypasses the layer), the cell count the workload
// fixes, the kernel share, and the trace's own overhead.
var perLayerExtra = []metricDef{
	{Name: "faults.inject_us", Unit: "us"},
	{Name: "faults.inject_share", Unit: "share"},
	{Name: "experiments.trial_us.gamma", Unit: "us"},
	{Name: "experiments.trial_us.shatter", Unit: "us"},
	{Name: "experiments.trial_us.percolation", Unit: "us"},
	{Name: "experiments.trial_us.prune", Unit: "us"},
	{Name: "experiments.trial_us.prune2", Unit: "us"},
	{Name: "experiments.trial_us.lambda2", Unit: "us"},
	{Name: "experiments.kernel_share", Unit: "share"},
	{Name: "sweep.cells", Unit: "count"},
	{Name: "cache.key_us", Unit: "us"},
	{Name: "cache.get_hit_us", Unit: "us"},
	{Name: "cache.get_miss_us", Unit: "us"},
	{Name: "cache.verify_us", Unit: "us"},
	{Name: "cache.put_us", Unit: "us"},
	{Name: "cache.hit_ratio", Unit: "share"},
	{Name: "fabric.submit_ms", Unit: "ms"},
	{Name: "fabric.first_byte_ms", Unit: "ms"},
	{Name: "fabric.stream_ms", Unit: "ms"},
	{Name: "trace.coverage", Unit: "share"},
	{Name: "trace.cpu_ratio", Unit: "ratio"},
}

// check is one correctness assertion and, if it failed, the first
// failure's detail.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is one workload run's outcome, passed from the child process
// that ran it to the parent as JSON.
type report struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Checks    []check              `json:"checks"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Layers    map[string]float64   `json:"layers,omitempty"`

	digest string // SHA-256 of the first pass's output
}

func newReport(w *workload, cfg runConfig) *report {
	return &report{Workload: w.Name, Traced: cfg.Trace, Samples: map[string][]float64{}}
}

func (r *report) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// check records one assertion under name; the first failure of a name
// keeps its detail.
func (r *report) check(name string, ok bool, format string, args ...any) {
	for i := range r.Checks {
		if r.Checks[i].Name == name {
			if !ok && r.Checks[i].OK {
				r.Checks[i] = check{Name: name, Detail: fmt.Sprintf(format, args...)}
			}
			return
		}
	}
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) finish() {
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// summary is a metric's median and quartiles over its samples.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// layerMetrics derives the per-layer metrics from the traced pass's
// spans. The replay's own compute time R (every replayed layer call
// except the separate inject replays) is the base of the shares.
func layerMetrics(tr *tracer, rp *replay, ref passOut, refCPU time.Duration, refCells int, replayCPU time.Duration) map[string]float64 {
	durs := map[string][]float64{} // nanoseconds, by span name
	sums := map[string]float64{}
	var covered, replayCompute, trialSum float64
	var trials []float64
	firstUnit := -1
	firstUnitInject := 0.0
	for i, s := range tr.spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		sums[s.Name] += d
		if strings.HasPrefix(s.Name, "experiments.trial.") {
			trials = append(trials, d)
			trialSum += d
		}
		if s.Name == "bench.unit" && firstUnit < 0 {
			firstUnit = i
		}
		if firstUnit >= 0 && s.Parent == firstUnit && s.Name == "faults.inject" {
			firstUnitInject += d
		}
	}
	self := make([]float64, len(tr.spans))
	for i, s := range tr.spans {
		d := float64(s.End - s.Start)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	for i, s := range tr.spans {
		if strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		covered += self[i]
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "bench.unit" && s.Name != "faults.inject" {
			replayCompute += self[i]
		}
	}
	wall := float64(tr.spans[0].End - tr.spans[0].Start)
	count := func(name string) float64 { return float64(len(durs[name])) }
	med := func(name string, unit float64) float64 { return median(durs[name]) / unit }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const us, ms = 1e3, 1e6
	injectSum := sums["faults.inject"]

	m := map[string]float64{
		"gen.builds":               count("gen.build"),
		"gen.build_ms":             sums["gen.build"] / ms,
		"faults.inject_calls":      count("faults.inject"),
		"faults.inject_us":         med("faults.inject", us),
		"faults.inject_share":      ratio(injectSum, trialSum),
		"experiments.setup_calls":  count("experiments.setup"),
		"experiments.setup_ms":     sums["experiments.setup"] / ms,
		"experiments.trial_us":     median(trials) / us,
		"experiments.kernel_share": ratio(trialSum-injectSum, replayCompute),
		"experiments.culled":       rp.culled,
		"sweep.cells":              float64(rp.computed + rp.hits),
		"sweep.trials":             float64(rp.trials),
		"sweep.fold_us":            med("sweep.fold", us),
		"sweep.marshal_us":         med("sweep.marshal", us),
		"sweep.record_bytes":       float64(rp.buf.Len()),
		"harness.parallel_eff":     ratio(replayCompute, float64(ref.workers)*float64(ref.wall)),
		"cache.key_us":             med("cache.key", us),
		"cache.get_hit_us":         med("cache.get_hit", us),
		"cache.get_miss_us":        med("cache.get_miss", us),
		"cache.verify_us":          med("cache.verify", us),
		"cache.put_us":             med("cache.put", us),
		"cache.hits":               float64(rp.hits),
		"cache.misses":             float64(rp.misses),
		"cache.hit_ratio":          ratio(float64(rp.hits), float64(rp.hits+rp.misses)),
		"cache.entry_bytes":        float64(rp.entryBytes),
		"fabric.submit_ms":         med("fabric.submit", ms),
		"fabric.first_byte_ms":     med("fabric.first_byte", ms),
		"fabric.stream_ms":         med("fabric.stream", ms),
		"fabric.shards":            float64(ref.shards),
		"fabric.store_bytes":       float64(ref.storeBytes),
		"fabric.failed_jobs":       float64(ref.failedJobs),
		"trace.coverage":           ratio(covered, wall),
		// Replay CPU per computed cell, without the inject replays (one
		// thread, so their wall time is their CPU time), over the
		// engine's CPU per cell for the same grid.
		"trace.cpu_ratio": ratio((float64(replayCPU)-injectSum)/float64(max(rp.computed, 1)),
			float64(refCPU)/float64(max(refCells, 1))),
	}
	for _, d := range perLayerExtra {
		if measure, ok := strings.CutPrefix(d.Name, "experiments.trial_us."); ok {
			m[d.Name] = med("experiments.trial."+measure, us)
		}
	}
	// The first record waits for the first cell's compute; the rest of
	// the engine's time to first record is scheduling, measured against
	// the engine's wall time for that job.
	if firstUnit >= 0 && len(ref.ttfr) > 0 {
		u := tr.spans[firstUnit]
		first := float64(u.End-u.Start) - firstUnitInject
		m["sweep.first_cell_ms"] = first / ms
		m["sweep.head_wait_share"] = ratio(float64(ref.ttfr[0])-first, float64(ref.jobWalls[0]))
	}
	return m
}

// stamp identifies the machine and build a result came from. compare
// refuses to set results from different machines side by side.
type stamp struct {
	CPU           string `json:"cpu_model"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	KernelVersion string `json:"kernel_version"`
	Commit        string `json:"commit"`
}

func machineStamp() stamp {
	s := stamp{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		KernelVersion: sweep.KernelVersion,
		Commit:        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty && s.Commit != "unknown" {
			s.Commit += "-dirty"
		}
	}
	return s
}

// machineDiff names the first machine field on which two stamps differ
// ("" if none). Commit and kernel version may differ: comparing two
// builds is the point.
func (s stamp) machineDiff(o stamp) string {
	switch {
	case s.CPU != o.CPU:
		return fmt.Sprintf("cpu model %q vs %q", s.CPU, o.CPU)
	case s.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", s.NProc, o.NProc)
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("go version %s vs %s", s.GoVersion, o.GoVersion)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// results is the -out file: the stamp, the run's settings, and every
// workload's report.
type results struct {
	Stamp   stamp     `json:"stamp"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Scale   string    `json:"scale"`
	Reports []*report `json:"workloads"`
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *results) report(workload string) *report {
	for _, rep := range r.Reports {
		if rep.Workload == workload {
			return rep
		}
	}
	return nil
}

// verdict judges B against A for one metric: unresolved when either
// side's spread is wider than the bound, worse when B's median is worse
// by more than the bound, better when it is better by more than A's own
// spread, and within bound otherwise.
func verdict(m metricDef, a, b summary) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.spread(), b.spread()) > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case -worse > a.spread():
		return "better"
	}
	return "within bound"
}

// compare prints, for every workload both files hold, each end-to-end
// metric's medians and quartiles with a verdict, failed_frac, and every
// per-layer value that differs.
func compare(w io.Writer, a, b *results) error {
	if d := a.Stamp.machineDiff(b.Stamp); d != "" {
		return fmt.Errorf("refusing to compare results from different machines: %s", d)
	}
	fmt.Fprintf(w, "A: commit %s, kernels %s\nB: commit %s, kernels %s\nmachine: %s, nproc %d, GOMAXPROCS %d, %s\n\n",
		a.Stamp.Commit, a.Stamp.KernelVersion, b.Stamp.Commit, b.Stamp.KernelVersion,
		a.Stamp.CPU, a.Stamp.NProc, a.Stamp.GOMAXPROCS, a.Stamp.GoVersion)
	for _, ra := range a.Reports {
		rb := b.report(ra.Workload)
		if rb == nil || ra.Traced != rb.Traced {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := summarize(ra.Samples[m.Name]), summarize(rb.Samples[m.Name])
			if sa.N == 0 && sb.N == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-16s A %-32s B %-32s %s (bound %g)\n", ra.Workload, m.Name,
				fmtSummary(sa, m.Unit), fmtSummary(sb, m.Unit), verdict(m, sa, sb), m.Bound)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		v := "within bound"
		if fb > fa {
			v = "worse"
		}
		fmt.Fprintf(w, "%-14s %-16s A %-32g B %-32g %s (any increase)\n", ra.Workload, "failed_frac", fa, fb, v)
		var names []string
		for name := range ra.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if va, vb := ra.Layers[name], rb.Layers[name]; va != vb {
				fmt.Fprintf(w, "%-14s %-34s A %-14.6g B %.6g\n", ra.Workload, name, va, vb)
			}
		}
	}
	return nil
}

func failedFrac(r *report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func fmtSummary(s summary, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] n=%d", s.Median, unit, s.Q1, s.Q3, s.N)
}
