package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// TestAdversarialSweepDeterministicAcrossWorkers extends the PR-1
// worker-count determinism guarantee to the adversarial fault model: the
// bottleneck adversary runs the full cut-finder per trial, so any hidden
// scheduling or shared-state leak in the finder or the per-worker
// workspaces would show up here as a byte diff.
func TestAdversarialSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := gridSpec("gamma", "shatter", "prune")
	spec.Model = sweep.ModelAdversarial
	spec.Rates = []float64{0, 0.05, 0.1}
	ref := runJSONL(t, spec, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		if got := runJSONL(t, spec, workers); !bytes.Equal(got, ref) {
			t.Errorf("adversarial model: workers=%d output differs from workers=1", workers)
		}
	}
}

// measureDigestsPath holds one SHA-256 per (execution path, measure):
// the output bytes every measure produced when the file was generated,
// with each record's kernel stamp taken out (see measureBytes).
const measureDigestsPath = "testdata/measure_digests.txt"

// measureBytes returns a measure's JSONL output without the records'
// kernel stamps, after checking that every record carries this binary's.
// The stamp changes with every KernelVersion bump, and the sweep goldens
// pin it; without it, a digest moves only when the measure's own bytes
// do, so a bump's digest diff names the measures whose kernels moved.
func measureBytes(t *testing.T, jsonl []byte) []byte {
	t.Helper()
	stamp := []byte(`,"kernel":"` + sweep.KernelVersion + `"`)
	if got, want := bytes.Count(jsonl, stamp), bytes.Count(jsonl, []byte("\n")); got != want {
		t.Fatalf("%d of %d records carry the kernel stamp %s", got, want, stamp)
	}
	return bytes.ReplaceAll(jsonl, stamp, nil)
}

// measurePath is one way the engine can execute a measure's grid.
type measurePath struct {
	name string
	spec *sweep.Spec
}

// measurePaths lists the execution paths a measure's bytes are pinned
// on: the serial trial fold, trial-parallel blocks (trial_block 1 with
// 2 trials, so every cell folds 2 blocks), for measures with a coupled
// implementation the coupled rate mode under iid-node and under iid-edge
// faults (coupled-edge) and again on an unsorted axis deep enough to
// fragment the torus (coupled-deep, coupled-deep-edge), the serial fold under iid-edge
// faults for every measure that accepts them (all but agreement, whose
// Byzantine parties are nodes), the serial fold under the adversarial
// model for the measures that count components without building the
// survivor, and the serial fold on the sampled tier (sampled:4) for
// every sampled-capable measure.
func measurePaths(measure string) []measurePath {
	serial := specForMeasure(measure)
	serial.Trials = 2
	blocks := specForMeasure(measure)
	blocks.Trials = 2
	blocks.TrialParallel = true
	blocks.TrialBlock = 1
	paths := []measurePath{{"serial", serial}, {"blocks", blocks}}
	if _, ok := sweep.LookupCoupled(measure); ok {
		coupled := specForMeasure(measure)
		coupled.Trials = 2
		coupled.RateMode = sweep.RateModeCoupled
		coupledEdge := specForMeasure(measure)
		coupledEdge.Trials = 2
		coupledEdge.RateMode = sweep.RateModeCoupled
		coupledEdge.Model = sweep.ModelIIDEdge
		paths = append(paths, measurePath{"coupled", coupled}, measurePath{"coupled-edge", coupledEdge})
		// The grid's rates stay below torus:5x5's bond threshold, so the
		// deep paths walk an unsorted axis that reaches past it and
		// fragments the survivor.
		for _, model := range []struct{ name, model string }{
			{"coupled-deep", sweep.ModelIIDNode},
			{"coupled-deep-edge", sweep.ModelIIDEdge},
		} {
			deep := specForMeasure(measure)
			deep.Trials = 2
			deep.RateMode = sweep.RateModeCoupled
			deep.Model = model.model
			deep.Rates = []float64{0.4, 0, 0.6, 0.2}
			paths = append(paths, measurePath{model.name, deep})
		}
	}
	if measure != "agreement" {
		edge := specForMeasure(measure)
		edge.Trials = 2
		edge.Model = sweep.ModelIIDEdge
		paths = append(paths, measurePath{"edge", edge})
	}
	switch measure {
	case "gamma", "shatter", "predictor", "conjecture":
		adv := specForMeasure(measure)
		adv.Trials = 2
		adv.Model = sweep.ModelAdversarial
		paths = append(paths, measurePath{"adversarial", adv})
	}
	if sweep.SampledCapable(measure) {
		sampled := specForMeasure(measure)
		sampled.Trials = 2
		sampled.Precision = "sampled:4"
		paths = append(paths, measurePath{"sampled", sampled})
	}
	return paths
}

// loadDigests reads a digest file of "key hex" lines into a key → hex
// map.
func loadDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		if ln == "" {
			continue
		}
		key, sum, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, ln)
		}
		out[key] = sum
	}
	return out
}

// TestEveryMeasureByteIdentical pins, for every registered measure and
// every execution path, that (a) two runs of the same grid are
// byte-identical, (b) the worker count does not leak into the bytes,
// and (c) the bytes, kernel stamps aside, match the digest recorded in
// measureDigestsPath —
// the per-measure determinism contract the README advertises. This is
// the regression net for new measures (one that draws randomness
// outside the cell RNG, or reads workspace state across cells, fails
// (a) or (b)) and for engine refactors (a silent byte move on any path
// fails (c)).
func TestEveryMeasureByteIdentical(t *testing.T) {
	if len(sweep.Measures()) < 17 {
		t.Fatalf("only %d measures registered, want ≥ 17", len(sweep.Measures()))
	}
	want := loadDigests(t, measureDigestsPath)
	var got []string
	for _, measure := range sweep.Measures() {
		measure := measure
		t.Run(measure, func(t *testing.T) {
			for _, p := range measurePaths(measure) {
				ref := runJSONL(t, p.spec, 1)
				if again := runJSONL(t, p.spec, 1); !bytes.Equal(again, ref) {
					t.Errorf("%s: re-run output differs (measure draws randomness outside the cell RNG?)", p.name)
				}
				if par := runJSONL(t, p.spec, 4); !bytes.Equal(par, ref) {
					t.Errorf("%s: workers=4 output differs from workers=1", p.name)
				}
				// Every line must be valid JSON carrying the measure name.
				for _, ln := range bytes.Split(bytes.TrimSpace(ref), []byte("\n")) {
					var r sweep.Result
					if err := json.Unmarshal(ln, &r); err != nil {
						t.Fatalf("%s: bad JSONL %q: %v", p.name, ln, err)
					}
					if r.Measure != measure {
						t.Fatalf("%s: record for measure %q in %q's output", p.name, r.Measure, measure)
					}
				}
				key := p.name + "/" + measure
				sum := fmt.Sprintf("%x", sha256.Sum256(measureBytes(t, ref)))
				got = append(got, key+" "+sum)
				if want[key] != sum {
					t.Errorf("%s: output digest %s, want %q (%s)", key, sum, want[key], measureDigestsPath)
				}
				delete(want, key)
			}
		})
	}
	for key := range want {
		t.Errorf("%s lists %s, which no registered measure produced", measureDigestsPath, key)
	}
	if t.Failed() {
		sort.Strings(got)
		t.Logf("digests of this run (the %s contents that would pass):\n%s", measureDigestsPath, strings.Join(got, "\n"))
	}
}

// TestMeasuresCountAndNames pins the registry surface: the acceptance
// floor of ≥ 17 measures and the presence of each extracted E1–E19
// kernel by name.
func TestMeasuresCountAndNames(t *testing.T) {
	have := map[string]bool{}
	for _, m := range sweep.Measures() {
		have[m] = true
	}
	want := []string{
		// PR-1 pipelines.
		"gamma", "prune", "prune2", "span", "percolation",
		// Extracted experiment kernels.
		"shatter", "separator", "dilation", "predictor", "counting",
		"loadbalance", "multibutterfly", "diameter", "agreement",
		"routing", "upfal", "residual", "lambda2", "conjecture",
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("measure %q not registered", name)
		}
	}
	if len(have) < 17 {
		t.Errorf("%d measures registered, want ≥ 17", len(have))
	}
}

// TestGammaTrialPathZeroAlloc pins the acceptance criterion directly:
// with a warm workspace and recorder, the gamma measure's steady-state
// trial path (draw → component sizes → observe) allocates nothing.
func TestGammaTrialPathZeroAlloc(t *testing.T) {
	setup, ok := sweep.LookupTrials("gamma")
	if !ok {
		t.Fatal("gamma is not trial-grained")
	}
	g, _, err := gen.FromFamily("torus", "16x16", 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := &sweep.Spec{
		Families: []sweep.FamilySpec{{Family: "torus", Size: "16x16"}},
		Measures: []string{"gamma"},
		Model:    sweep.ModelIIDNode,
		Rates:    []float64{0.05},
		Trials:   8,
		Seed:     7,
	}
	c := spec.Cells()[0]
	ws := graph.NewWorkspace()
	rec := sweep.NewRecorder()
	run, err := setup(g, c, ws, xrand.New(c.Seed), rec)
	if err != nil {
		t.Fatal(err)
	}
	// Warm pass: grow workspace buffers and recorder slots.
	if err := sweep.RunTrials(c, ws, rec, run.Trial); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sweep.RunTrials(c, ws, rec, run.Trial); err != nil {
			t.Fatal(err)
		}
	})
	if perTrial := allocs / float64(c.Trials); perTrial > 0 {
		t.Errorf("gamma trial path allocates %.2f/trial (%.0f per %d-trial loop), want 0", perTrial, allocs, c.Trials)
	}
}

// TestEveryMeasureEmitsCompanions pins the tentpole acceptance
// criterion: for every registered measure, every per-trial base metric
// X (surfaced as X_mean) is accompanied by X_std, X_min, and X_max in
// the same record.
func TestEveryMeasureEmitsCompanions(t *testing.T) {
	for _, measure := range sweep.Measures() {
		measure := measure
		t.Run(measure, func(t *testing.T) {
			spec := specForMeasure(measure)
			out := runJSONL(t, spec, 2)
			sawMean := false
			for _, ln := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
				var r sweep.Result
				if err := json.Unmarshal(ln, &r); err != nil {
					t.Fatal(err)
				}
				for key := range r.Metrics {
					base, isMean := strings.CutSuffix(key, "_mean")
					if !isMean {
						continue
					}
					sawMean = true
					for _, suffix := range []string{"_std", "_min", "_max"} {
						if _, ok := r.Metrics[base+suffix]; !ok {
							t.Errorf("rate %g: %s present but %s missing", r.Rate, key, base+suffix)
						}
					}
				}
			}
			if !sawMean {
				t.Errorf("measure %s emitted no per-trial metrics at all", measure)
			}
		})
	}
}
