// Package experiments implements the reproduction experiments E1–E19
// (E1–E12 one per theorem/claim of the paper, E13–E19 extensions — the
// full index is All below, one e*.go file per experiment, printed by
// `faultexp list`). Each experiment produces result tables and a list
// of falsifiable shape checks against the paper's prediction; `go test`
// runs every experiment in quick mode and asserts all checks pass, and
// the benchmark suite regenerates every table.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"faultexp/internal/cuts"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/xrand"
)

// All returns the experiments in ID order: E1–E12 reproduce the paper's
// theorems and claims; E13–E19 are extension experiments (the §1.3
// load-balancing, agreement and routing applications, the §1.1
// Leighton–Maggs multibutterfly baseline, the cut-finder ablation, the
// §4 diameter-vs-expansion bound, and evidence for the open span-O(1)
// conjecture).
func All() []*harness.Experiment {
	return []*harness.Experiment{
		E1(), E2(), E3(), E4(), E5(), E6(),
		E7(), E8(), E9(), E10(), E11(), E12(),
		E13(), E14(), E15(), E16(), E17(), E18(), E19(),
	}
}

// Lookup returns the experiment with the given ID, ignoring case.
func Lookup(id string) (*harness.Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return nil, false
}

// measuredNodeAlpha estimates a graph's node expansion (exact for small
// graphs) — the α parameter the theorems consume.
func measuredNodeAlpha(g *graph.Graph, rng *xrand.RNG) float64 {
	r, _ := cuts.EstimateNodeExpansion(g, cuts.Options{RNG: rng})
	return r.NodeAlpha
}

// measuredEdgeAlpha estimates a graph's edge expansion.
func measuredEdgeAlpha(g *graph.Graph, rng *xrand.RNG) float64 {
	r, _ := cuts.EstimateEdgeExpansion(g, cuts.Options{RNG: rng})
	return r.EdgeAlpha
}

// isFinite reports whether v can ride in a JSON metric stream.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// fmtI renders an int for table cells.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }
