// Package harness is the experiment framework: the Experiment type the
// paper's reproduction experiments are written against (one per
// theorem/claim — the e*.go files of internal/experiments, listed by
// `faultexp list`), a configuration that scales workloads between quick
// (CI/bench) and full sizes, the ordered worker pool the sweep engine
// streams through (RunOrdered), and a report type that couples result
// tables with named pass/fail *shape checks* — the falsifiable
// statements each experiment makes about the paper's predictions.
package harness

import (
	"fmt"
	"io"

	"faultexp/internal/stats"
	"faultexp/internal/xrand"
)

// Config controls an experiment run.
type Config struct {
	// Quick selects reduced problem sizes (used by go test and the
	// benchmark suite); full sizes are the ones `faultexp experiment
	// -full` runs.
	Quick bool
	// Seed makes the entire experiment deterministic.
	Seed uint64
}

// RNG derives the experiment's root generator from the seed.
func (c Config) RNG() *xrand.RNG { return xrand.New(c.Seed ^ 0x9E3779B97F4A7C15) }

// Pick returns q in quick mode and f otherwise — the standard size
// switch used throughout the experiment implementations.
func (c Config) Pick(q, f int) int {
	if c.Quick {
		return q
	}
	return f
}

// Check is a falsifiable assertion an experiment makes about the paper's
// prediction ("who wins", "bound never violated", "threshold in band").
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Checks []Check
}

// AddTable appends a result table.
func (r *Report) AddTable(t *stats.Table) { r.Tables = append(r.Tables, t) }

// Checkf records a named assertion with a formatted detail string.
func (r *Report) Checkf(ok bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Passed reports whether every check succeeded.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Render writes the report (tables then checks) to w.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintln(w, t.String())
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "[%s] %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// Experiment couples an identifier with the paper result it reproduces
// and the function that runs it.
type Experiment struct {
	ID          string // e.g. "E1"
	Title       string
	PaperRef    string // e.g. "Theorem 2.1"
	Expectation string // one-line statement of the paper's prediction
	Run         func(cfg Config) *Report
}

// NewReport initializes a report labelled with the experiment identity.
func (e *Experiment) NewReport() *Report {
	return &Report{ID: e.ID, Title: e.Title}
}
