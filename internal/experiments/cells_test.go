package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"faultexp/internal/sweep"
)

// gridSpec is a small but real grid: 3 families × 4 rates with the
// gamma and prune2 pipelines — the acceptance-criteria shape.
func gridSpec(measures ...string) *sweep.Spec {
	return &sweep.Spec{
		Families: []sweep.FamilySpec{
			{Family: "torus", Size: "5x5"},
			{Family: "hypercube", Size: "4"},
			{Family: "expander", Size: "5"},
		},
		Measures: measures,
		Model:    sweep.ModelIIDNode,
		Rates:    []float64{0, 0.05, 0.1, 0.2},
		Trials:   2,
		Seed:     20040627,
	}
}

// runJSONL runs spec to completion through the Job API on workers
// goroutines and returns its JSONL bytes, failing on any cell error.
func runJSONL(t *testing.T, spec *sweep.Spec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	j, err := sweep.NewJob(spec, sweep.WithWriter(sweep.NewJSONL(&buf)), sweep.WithWorkers(workers))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	sum, err := j.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d cells errored:\n%s", sum.Errors, buf.String())
	}
	return buf.Bytes()
}

// TestRealMeasuresDeterministicAcrossWorkers pins the tentpole guarantee
// on the actual paper pipelines, not just toy cells.
func TestRealMeasuresDeterministicAcrossWorkers(t *testing.T) {
	spec := gridSpec("gamma", "prune2")
	ref := runJSONL(t, spec, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := runJSONL(t, spec, workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d output differs from workers=1", workers)
		}
	}
}

// specForMeasure adapts the standard small grid to a measure's domain
// constraints: multibutterfly only runs on butterfly-family cells, and
// the separator measure reinterprets rate as the fragment threshold
// ε ∈ (0,1].
func specForMeasure(measure string) *sweep.Spec {
	spec := gridSpec(measure)
	spec.Families = spec.Families[:1] // torus only, keep it quick
	switch measure {
	case "multibutterfly":
		spec.Families = []sweep.FamilySpec{{Family: "butterfly", Size: "3"}}
	case "separator":
		spec.Rates = []float64{0.2, 0.35, 0.5}
	}
	return spec
}

// TestMeasureSanity checks that every registered measure produces
// physically sensible metrics on a small grid.
func TestMeasureSanity(t *testing.T) {
	for _, measure := range sweep.Measures() {
		measure := measure
		t.Run(measure, func(t *testing.T) {
			spec := specForMeasure(measure)
			out := runJSONL(t, spec, 2)
			var results []*sweep.Result
			for _, ln := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
				var r sweep.Result
				if err := json.Unmarshal(ln, &r); err != nil {
					t.Fatalf("bad JSONL %q: %v", ln, err)
				}
				results = append(results, &r)
			}
			if len(results) != len(spec.Rates) {
				t.Fatalf("%d results, want %d", len(results), len(spec.Rates))
			}
			// Rate 0 must be lossless; gamma-like metrics live in [0,1].
			for _, r := range results {
				for _, key := range []string{"gamma_mean", "survivor_frac_mean"} {
					if v, ok := r.Metrics[key]; ok && (v < 0 || v > 1) {
						t.Errorf("rate %g: %s = %g outside [0,1]", r.Rate, key, v)
					}
				}
				if r.Rate == 0 {
					for _, key := range []string{"gamma_mean", "survivor_frac_mean"} {
						if v, ok := r.Metrics[key]; ok && v != 1 {
							t.Errorf("rate 0: %s = %g, want 1", key, v)
						}
					}
					if v, ok := r.Metrics["faults_mean"]; ok && v != 0 {
						t.Errorf("rate 0: faults_mean = %g, want 0", v)
					}
				}
			}
			// The connectivity-style means must not increase with the
			// fault rate by more than Monte-Carlo noise allows; with the
			// deterministic seeds this is a fixed property of the output.
			if g0, ok := results[0].Metrics["gamma_mean"]; ok {
				if gLast, ok2 := results[len(results)-1].Metrics["gamma_mean"]; ok2 && gLast > g0 {
					t.Errorf("gamma_mean grew with fault rate: %g -> %g", g0, gLast)
				}
			}
		})
	}
}

// TestAdversarialModelCells exercises the adversarial model path through
// the prune pipeline (the Theorem 2.1 setting).
func TestAdversarialModelCells(t *testing.T) {
	spec := gridSpec("prune")
	spec.Model = sweep.ModelAdversarial
	spec.Families = []sweep.FamilySpec{{Family: "torus", Size: "5x5"}}
	spec.Rates = []float64{0, 0.1}
	out := runJSONL(t, spec, 2)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var r sweep.Result
	if err := json.Unmarshal(lines[1], &r); err != nil {
		t.Fatal(err)
	}
	if r.Metrics["faults_mean"] == 0 {
		t.Error("adversarial model at rate 0.1 injected no faults")
	}
}
