package sweep

// This file holds the record side of the engine: the streamed Result
// and its header (newResult), and the metric filter every path ends in
// (finishResult).
// The measure table and the trial loop live in trials.go, the coupled
// rate-group loop in coupled.go; the run loop itself — expand, execute
// on a bounded pool, stream in cell order — lives on the Job type
// (job.go).

import (
	"math"
	"sort"
	"strings"
)

// Result is one streamed output record: the cell's coordinates plus its
// measured metrics. Field order (and sorted metric keys) make the JSON
// encoding byte-stable.
type Result struct {
	Family  string  `json:"family"`
	Size    string  `json:"size"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Measure string  `json:"measure"`
	Model   string  `json:"model"`
	Rate    float64 `json:"rate"`
	Trials  int     `json:"trials"`
	Seed    uint64  `json:"seed"`
	// Precision is the measurement tier ("sampled:k"); empty (omitted)
	// for exact cells, so historical output is byte-identical.
	Precision string `json:"precision,omitempty"`
	// TrialBlock records the trial-parallel block partition that
	// produced this record (0/omitted = the serial trial fold, so
	// historical output is byte-identical). Part of the resume
	// contract: serial and trial-parallel records never splice into
	// one stream, since their _mean/_std bytes can differ in the last
	// ulp.
	TrialBlock int `json:"trial_block,omitempty"`
	// Kernel is the KernelVersion of the binary that computed the
	// record. Part of the resume contract: records of two kernel
	// generations never splice into one stream (CheckRecord).
	Kernel  string             `json:"kernel,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Nonfinite lists (comma-joined, sorted) the metric keys whose
	// values were NaN/±Inf and therefore dropped from Metrics — a
	// half-broken measure is visibly different from a clean one.
	Nonfinite string `json:"nonfinite,omitempty"`
	Err       string `json:"err,omitempty"`
}

// MetricNames returns the result's metric keys, sorted — the iteration
// order every writer uses.
func (r *Result) MetricNames() []string {
	out := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary is the aggregate outcome of a grid run.
type Summary struct {
	Cells  int // cells executed
	Errors int // cells whose Result carries an Err
}

// newResult builds a record's header — the cell's coordinates, the
// graph's size and the kernel stamp — for foldBlocks, which renders every Result (an
// independent cell's blocks and each rate of a coupled group); metrics
// or an error are filled in after.
func newResult(c Cell, n, m int) *Result {
	return &Result{
		Family:     c.Family.Family,
		Size:       c.Family.Size,
		N:          n,
		M:          m,
		Measure:    c.Measure,
		Model:      c.Model,
		Rate:       c.Rate,
		Trials:     c.Trials,
		Seed:       c.Seed,
		Precision:  c.recordPrecision(),
		TrialBlock: c.TrialBlock,
		Kernel:     KernelVersion,
	}
}

// finishResult installs a metric map on a result (foldBlocks' last
// step, on the independent and coupled paths alike). Non-finite values
// cannot ride in JSON, so they are dropped from Metrics — but
// their *names* are recorded in Nonfinite, so a cell where one measure
// overflowed is distinguishable from a clean one. A result with no
// finite metrics gets an Err instead, keeping the cell visible in every
// output format (a long-format CSV row only exists per metric or per
// error).
func finishResult(res *Result, metrics map[string]float64) {
	var dropped []string
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			dropped = append(dropped, k)
			delete(metrics, k)
		}
	}
	if len(dropped) > 0 {
		sort.Strings(dropped)
		res.Nonfinite = strings.Join(dropped, ",")
	}
	if len(metrics) == 0 {
		res.Err = "no finite metrics"
		return
	}
	res.Metrics = metrics
}
