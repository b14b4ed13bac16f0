package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

var counted atomic.Int32

// The tests register toy measures so this package's determinism story is
// exercised without depending on the real pipelines (those are covered
// in internal/experiments/cells_test.go).
func init() {
	// toy draws from the trial RNG and sleeps a scheduling-dependent
	// amount, so any ordering or seeding leak shows up as a byte diff.
	Register("toy", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		time.Sleep(time.Duration(c.Index%5) * 200 * time.Microsecond)
		rec.Const("rate_echo", c.Rate)
		inf := 1.0
		if c.Rate == 0 {
			inf = math.Inf(1) // must be stripped
		}
		rec.Const("inf_gets_dropped", inf)
		return TrialRun{Trial: observeDraw}, nil
	}})
	// counting tracks how many cells actually execute.
	Register("counting", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		counted.Add(1)
		rec.Const("ok", 1)
		return TrialRun{Trial: noTrial}, nil
	}})
	// toyerr fails on one rate and panics on another: in setup on the
	// independent path, in the per-rate finisher on the coupled path.
	Register("toyerr", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		if err := toyErrAt(c.Rate, rec); err != nil {
			return TrialRun{}, err
		}
		return TrialRun{Trial: noTrial}, nil
	}, Coupled: func(g *graph.Graph, cells []Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*Recorder) (CoupledRun, error) {
		return CoupledRun{
			Trial: func(int, *graph.Workspace, *xrand.RNG, []*xrand.RNG, []*Recorder) error { return nil },
			Finish: func(ri int, rec *Recorder) error {
				return toyErrAt(cells[ri].Rate, rec)
			},
		}, nil
	}})
}

// toyErrAt is toyerr's per-rate outcome: an error at rate 0.5, a panic
// at rate 1, a constant otherwise.
func toyErrAt(rate float64, rec *Recorder) error {
	switch rate {
	case 0.5:
		return fmt.Errorf("synthetic failure")
	case 1:
		panic("synthetic panic")
	}
	rec.Const("ok", 1)
	return nil
}

// observeDraw is the toy trial body: one uniform draw per trial.
func observeDraw(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
	rec.Observe("draw", rng.Float64())
	return nil
}

// noTrial is the trial body of toys whose metrics are all constants.
func noTrial(int, *graph.Workspace, *xrand.RNG, *Recorder) error { return nil }

// runSpec runs spec to completion through the Job API — the synchronous
// form every test in this package drives.
func runSpec(spec *Spec, w Writer, opts ...JobOption) (Summary, error) {
	j, err := NewJob(spec, append([]JobOption{WithWriter(w)}, opts...)...)
	if err != nil {
		return Summary{}, err
	}
	if err := j.Start(context.Background()); err != nil {
		return Summary{}, err
	}
	return j.Wait()
}

func toySpec() *Spec {
	return &Spec{
		Families: []FamilySpec{
			{Family: "torus", Size: "4x4"},
			{Family: "hypercube", Size: "4"},
			{Family: "rr", Size: "24x3"},
		},
		Measures: []string{"toy"},
		Model:    ModelIIDNode,
		Rates:    []float64{0, 0.1, 0.25, 0.5},
		Trials:   3,
		Seed:     99,
	}
}

func runToBytes(t *testing.T, spec *Spec, workers int) (jsonl, csv []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	w := MultiWriter{NewJSONL(&jb), NewCSV(&cb)}
	sum, err := runSpec(spec, w, WithWorkers(workers))
	if err != nil {
		t.Fatalf("run(workers=%d): %v", workers, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := len(spec.Families) * len(spec.Measures) * len(spec.Rates)
	if sum.Cells != want {
		t.Fatalf("run(workers=%d): %d cells, want %d", workers, sum.Cells, want)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestDeterministicAcrossWorkers is the tentpole guarantee: the same
// grid + seed produces byte-identical JSONL and CSV regardless of the
// worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	spec := toySpec()
	refJSON, refCSV := runToBytes(t, spec, 1)
	cases := []struct {
		name    string
		workers int
	}{
		{"workers=1-again", 1},
		{"workers=4", 4},
		{"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)},
		{"workers=2xGOMAXPROCS", 2 * runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, cs := runToBytes(t, spec, c.workers)
			if !bytes.Equal(j, refJSON) {
				t.Errorf("JSONL differs from workers=1 reference:\n--- ref ---\n%s\n--- got ---\n%s", refJSON, j)
			}
			if !bytes.Equal(cs, refCSV) {
				t.Errorf("CSV differs from workers=1 reference")
			}
		})
	}
}

func TestJSONLShapeAndInfStripping(t *testing.T) {
	jsonl, _ := runToBytes(t, toySpec(), 4)
	lines := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(lines) != 12 {
		t.Fatalf("got %d JSONL lines, want 12", len(lines))
	}
	for _, ln := range lines {
		var r Result
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		if r.Err != "" {
			t.Errorf("unexpected cell error: %s", r.Err)
		}
		if r.N == 0 || r.Seed == 0 {
			t.Errorf("missing cell coordinates in %q", ln)
		}
		if r.Rate == 0 {
			if _, ok := r.Metrics["inf_gets_dropped"]; ok {
				t.Errorf("non-finite metric leaked into output: %q", ln)
			}
			// The dropped key must be *recorded*, not silently deleted —
			// a half-broken measure is distinguishable from a clean one.
			if r.Nonfinite != "inf_gets_dropped" {
				t.Errorf("nonfinite = %q, want %q in %q", r.Nonfinite, "inf_gets_dropped", ln)
			}
		} else {
			if r.Metrics["inf_gets_dropped"] != 1 {
				t.Errorf("finite metric missing in %q", ln)
			}
			if r.Nonfinite != "" {
				t.Errorf("clean cell carries nonfinite %q", r.Nonfinite)
			}
		}
	}
}

// TestNonfiniteKeysRecorded pins the satellite fix end-to-end: dropped
// keys are sorted and comma-joined in JSONL, surface as a "nonfinite"
// CSV row, and an all-nonfinite cell keeps both the error and the list.
func TestNonfiniteKeysRecorded(t *testing.T) {
	Register("allnan", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		rec.Const("b_bad", math.NaN())
		rec.Const("a_bad", math.NaN())
		rec.Const("ok", c.Rate)
		return TrialRun{Trial: noTrial}, nil
	}})
	spec := toySpec()
	spec.Measures = []string{"allnan"}
	spec.Families = spec.Families[:1]
	spec.Rates = []float64{0, 0.5}
	var jb, cb bytes.Buffer
	w := MultiWriter{NewJSONL(&jb), NewCSV(&cb)}
	if _, err := runSpec(spec, w, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(jb.Bytes()), []byte("\n"))
	var r0, r1 Result
	if err := json.Unmarshal(lines[0], &r0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &r1); err != nil {
		t.Fatal(err)
	}
	// Rate 0: "ok" is 0 (finite), a_bad/b_bad dropped — sorted order.
	if r0.Nonfinite != "a_bad,b_bad" || r0.Err != "" || r0.Metrics["ok"] != 0 {
		t.Errorf("rate-0 record: %+v", r0)
	}
	if r1.Nonfinite != "a_bad,b_bad" || r1.Metrics["ok"] != 0.5 {
		t.Errorf("rate-0.5 record: %+v", r1)
	}
	if !strings.Contains(cb.String(), ",nonfinite,\"a_bad,b_bad\"") {
		t.Errorf("CSV missing nonfinite row:\n%s", cb.String())
	}
	// An all-nonfinite cell keeps both the error and the key list.
	Register("allnan2", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		rec.Const("only", math.Inf(1))
		return TrialRun{Trial: noTrial}, nil
	}})
	spec2 := toySpec()
	spec2.Measures = []string{"allnan2"}
	spec2.Families = spec2.Families[:1]
	spec2.Rates = []float64{0}
	var jb2 bytes.Buffer
	sum, err := runSpec(spec2, NewJSONL(&jb2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 {
		t.Fatalf("summary %+v, want 1 error", sum)
	}
	var r2 Result
	if err := json.Unmarshal(bytes.TrimSpace(jb2.Bytes()), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Err != "no finite metrics" || r2.Nonfinite != "only" {
		t.Errorf("all-nonfinite record: %+v", r2)
	}
}

func TestCellSeedsIgnorePosition(t *testing.T) {
	spec := toySpec()
	seeds := map[string]uint64{}
	for _, c := range spec.Cells() {
		seeds[fmt.Sprintf("%s|%s|%g", c.Family, c.Measure, c.Rate)] = c.Seed
	}
	// Prepend a family and append a rate: every pre-existing cell must
	// keep its seed even though indices shifted.
	spec2 := toySpec()
	spec2.Families = append([]FamilySpec{{Family: "mesh", Size: "3x3"}}, spec2.Families...)
	spec2.Rates = append(spec2.Rates, 0.75)
	for _, c := range spec2.Cells() {
		key := fmt.Sprintf("%s|%s|%g", c.Family, c.Measure, c.Rate)
		if old, ok := seeds[key]; ok && old != c.Seed {
			t.Errorf("cell %s changed seed when the grid grew: %x -> %x", key, old, c.Seed)
		}
	}
	// And all seeds are distinct.
	seen := map[uint64]string{}
	for _, c := range spec2.Cells() {
		key := fmt.Sprintf("%s|%s|%g", c.Family, c.Measure, c.Rate)
		if prev, dup := seen[c.Seed]; dup {
			t.Errorf("seed collision between %s and %s", prev, key)
		}
		seen[c.Seed] = key
	}
}

// TestCellErrorsAreRecordedNotFatal: a failing or panicking cell fails
// only its own record, on the independent and the coupled path alike
// (the panicking rate comes first, so it must not take later rates
// down with it).
func TestCellErrorsAreRecordedNotFatal(t *testing.T) {
	for _, mode := range []string{RateModeIndependent, RateModeCoupled} {
		spec := toySpec()
		spec.Measures = []string{"toyerr"}
		spec.Rates = []float64{1, 0.5, 0.25}
		spec.Families = spec.Families[:1]
		spec.RateMode = mode
		var jb bytes.Buffer
		w := NewJSONL(&jb)
		sum, err := runSpec(spec, w, WithWorkers(2))
		if err != nil {
			t.Fatalf("%s run: %v", mode, err)
		}
		if sum.Cells != 3 || sum.Errors != 2 {
			t.Fatalf("%s summary %+v, want 3 cells with 2 errors", mode, sum)
		}
		w.Flush()
		out := jb.String()
		if !strings.Contains(out, "synthetic failure") || !strings.Contains(out, "panic: synthetic panic") {
			t.Fatalf("%s error cells not streamed:\n%s", mode, out)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"ok", func(s *Spec) {}, ""},
		{"no-families", func(s *Spec) { s.Families = nil }, "no families"},
		{"no-measures", func(s *Spec) { s.Measures = nil }, "no measures"},
		{"unknown-measure", func(s *Spec) { s.Measures = []string{"nope"} }, "unknown measure"},
		{"bad-model", func(s *Spec) { s.Model = "meteor" }, "unknown fault model"},
		{"no-rates", func(s *Spec) { s.Rates = nil }, "no rates"},
		{"rate-range", func(s *Spec) { s.Rates = []float64{1.5} }, "outside [0,1]"},
		{"rate-nan", func(s *Spec) { s.Rates = []float64{0.1, math.NaN()} }, "outside [0,1]"},
		{"dup-rate", func(s *Spec) { s.Rates = []float64{0.1, 0.25, 0.1} }, "duplicate rate 0.1"},
		{"dup-rate-signed-zero", func(s *Spec) { s.Rates = []float64{0, math.Copysign(0, -1)} }, "duplicate rate"},
		{"dup-family", func(s *Spec) { s.Families = append(s.Families, FamilySpec{Family: "torus", Size: "4x4"}) }, `duplicate family "torus:4x4"`},
		{"dup-family-token", func(s *Spec) {
			s.Families = []FamilySpec{{Family: "chain", Size: "4", K: 3}, {Family: "chain", Size: "4:3"}}
		}, `duplicate family "chain:4:3"`},
		{"dup-measure", func(s *Spec) { s.Measures = []string{"toy", "counting", "toy"} }, `duplicate measure "toy"`},
		{"bad-trials", func(s *Spec) { s.Trials = 0 }, "trials"},
		{"missing-size", func(s *Spec) { s.Families[0].Size = "" }, "missing family or size"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := toySpec()
			c.mutate(s)
			err := s.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestLoadRejectsUnknownFieldsAndBadGrids(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"familoes": []}`)); err == nil {
		t.Error("Load accepted a misspelled field")
	}
	good := `{"families":[{"family":"torus","size":"4x4"}],"measures":["toy"],
	          "model":"iid-node","rates":[0,0.1],"trials":2,"seed":7}`
	s, err := Load(strings.NewReader(good))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(s.Cells()) != 2 {
		t.Fatalf("loaded spec expands to %d cells, want 2", len(s.Cells()))
	}
}

func TestParseHelpers(t *testing.T) {
	fams, err := ParseFamilies("torus:8x8, hypercube:6,chain:4:3")
	if err != nil {
		t.Fatalf("ParseFamilies: %v", err)
	}
	if len(fams) != 3 || fams[2].K != 3 || fams[2].String() != "chain:4:3" {
		t.Fatalf("ParseFamilies = %+v", fams)
	}
	for _, bad := range []string{"torus", ":8x8", "chain:4:0", "", "chain:4:3:9"} {
		if _, err := ParseFamilies(bad); err == nil {
			t.Errorf("ParseFamilies(%q) accepted", bad)
		}
	}
	// The :k suffix is only valid for families that declare a use for it
	// — it used to be silently accepted (and ignored) everywhere.
	for _, tok := range []string{"smallworld:32x4:5", "shortcut:4x4:6"} {
		if _, err := ParseFamily(tok); err != nil {
			t.Errorf("ParseFamily(%q): %v", tok, err)
		}
	}
	for _, tok := range []string{"torus:8x8:3", "hypercube:6:2", "rr:24x3:1", "gnp:24x3:1"} {
		if _, err := ParseFamily(tok); err == nil || !strings.Contains(err.Error(), "takes no k") {
			t.Errorf("ParseFamily(%q) = %v, want 'takes no k' error", tok, err)
		}
	}
	// Unknown families now fail at parse time, not at graph-build time.
	if _, err := ParseFamily("nosuch:4x4"); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Errorf("ParseFamily(nosuch:4x4) = %v, want 'unknown family' error", err)
	}
	rs, err := ParseRates("0, 0.05,0.1")
	if err != nil || len(rs) != 3 || rs[1] != 0.05 {
		t.Fatalf("ParseRates = %v, %v", rs, err)
	}
	if _, err := ParseRates("a,b"); err == nil {
		t.Error("ParseRates accepted garbage")
	}
}

// TestMultiModelCells pins the grid expansion order (families ×
// measures × models × rates) and that a cell's seed is independent of
// which other models share the grid.
func TestMultiModelCells(t *testing.T) {
	spec := toySpec()
	spec.Model = ""
	spec.Models = []string{ModelIIDNode, ModelIIDEdge, ModelAdversarial}
	cells := spec.Cells()
	if want := len(spec.Families) * len(spec.Models) * len(spec.Rates); len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	// Models vary faster than families/measures, slower than rates.
	if cells[0].Model != ModelIIDNode || cells[len(spec.Rates)].Model != ModelIIDEdge {
		t.Errorf("model axis not in expected position: cells[0]=%s cells[%d]=%s",
			cells[0].Model, len(spec.Rates), cells[len(spec.Rates)].Model)
	}
	// Single-model grids keep their historical seeds: the iid-node slice
	// of the multi-model grid matches the legacy scalar expansion.
	legacy := toySpec() // Model: iid-node
	legacySeeds := map[string]uint64{}
	for _, c := range legacy.Cells() {
		legacySeeds[fmt.Sprintf("%s|%s|%g", c.Family, c.Measure, c.Rate)] = c.Seed
	}
	matched := 0
	for _, c := range cells {
		if c.Model != ModelIIDNode {
			continue
		}
		key := fmt.Sprintf("%s|%s|%g", c.Family, c.Measure, c.Rate)
		if legacySeeds[key] != c.Seed {
			t.Errorf("cell %s changed seed when the model axis grew", key)
		}
		matched++
	}
	if matched != len(legacy.Cells()) {
		t.Errorf("matched %d iid-node cells, want %d", matched, len(legacy.Cells()))
	}
}

// TestLegacyScalarModelEquivalence: a spec using the legacy scalar
// "model" field must produce byte-identical output to the same grid
// written with a one-element "models" list.
func TestLegacyScalarModelEquivalence(t *testing.T) {
	legacyJSON, _ := runToBytes(t, toySpec(), 2)
	list := toySpec()
	list.Model = ""
	list.Models = []string{ModelIIDNode}
	listJSON, _ := runToBytes(t, list, 2)
	if !bytes.Equal(legacyJSON, listJSON) {
		t.Errorf("legacy scalar model output differs from models list:\n--- scalar ---\n%s\n--- list ---\n%s", legacyJSON, listJSON)
	}
	// The JSON spec forms load equivalently too.
	s, err := Load(strings.NewReader(`{"families":[{"family":"torus","size":"4x4"}],
		"measures":["toy"],"model":"iid-node","rates":[0],"trials":1,"seed":3}`))
	if err != nil {
		t.Fatalf("Load(legacy): %v", err)
	}
	if len(s.Models) != 1 || s.Models[0] != ModelIIDNode || s.Model != "" {
		t.Errorf("legacy scalar not normalized: %+v", s)
	}
}

func TestModelListValidation(t *testing.T) {
	s := toySpec()
	s.Models = []string{ModelIIDEdge}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "both") {
		t.Errorf("Validate with both model and models = %v, want error", err)
	}
	s = toySpec()
	s.Model = ""
	s.Models = []string{ModelIIDNode, ModelIIDNode}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Validate with duplicate models = %v, want duplicate error", err)
	}
	s = toySpec()
	s.Model = ""
	if err := s.Validate(); err == nil {
		t.Error("Validate with no models succeeded")
	}
	if _, err := ParseModels("iid-node, iid-edge"); err != nil {
		t.Errorf("ParseModels: %v", err)
	}
	for _, bad := range []string{"", "meteor", "iid-node,iid-node"} {
		if _, err := ParseModels(bad); err == nil {
			t.Errorf("ParseModels(%q) accepted", bad)
		}
	}
}

// failWriter fails on the k-th write.
type failWriter struct{ left int }

func (f *failWriter) Write(r *Result) error {
	f.left--
	if f.left < 0 {
		return fmt.Errorf("disk full")
	}
	return nil
}
func (f *failWriter) Flush() error { return nil }

func TestWriterErrorAbortsRun(t *testing.T) {
	_, err := runSpec(toySpec(), &failWriter{left: 2}, WithWorkers(2))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run = %v, want writer error", err)
	}
	// A dead sink must also stop the computation, not just the writes.
	counted.Store(0)
	spec := toySpec()
	spec.Measures = []string{"counting"}
	if _, err := runSpec(spec, &failWriter{left: 1}, WithWorkers(1)); err == nil {
		t.Fatal("run with failing writer succeeded")
	}
	if got, total := counted.Load(), int32(len(spec.Cells())); got >= total {
		t.Errorf("all %d cells computed after the writer died (want an early stop)", got)
	} else if got < 1 {
		t.Errorf("counted %d cells, expected at least the ones before the failure", got)
	}
}

// TestAbortStopsSummaryAndProgress pins the satellite fix: after the
// writer dies, the synthetic aborted placeholders (and in-flight cells)
// are not counted in the summary and do not fire Progress.
func TestAbortStopsSummaryAndProgress(t *testing.T) {
	spec := toySpec() // 12 cells
	var progress int
	lastDone := -1
	sum, err := runSpec(spec, &failWriter{left: 2}, WithWorkers(2),
		WithProgress(func(done, total int) {
			progress++
			lastDone = done
		}))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run = %v, want writer error", err)
	}
	// Writes 0 and 1 succeed, write 2 fails: exactly 3 cells entered the
	// outcome (the third died at the sink), progress fired for the 2
	// written ones, and none of the 12-3=9 aborted results inflated
	// anything.
	if sum.Cells != 3 {
		t.Errorf("sum.Cells = %d, want 3 (aborted placeholders must not count)", sum.Cells)
	}
	if sum.Errors != 0 {
		t.Errorf("sum.Errors = %d, want 0 (synthetic 'aborted' results must not count)", sum.Errors)
	}
	if progress != 2 || lastDone != 2 {
		t.Errorf("Progress fired %d times (last done=%d), want 2 calls ending at 2", progress, lastDone)
	}
}

// TestRunFlushesWriter pins the library-user path: a job itself must
// leave the sink fully flushed (cmd/faultexp no longer flushes manually).
func TestRunFlushesWriter(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runSpec(toySpec(), NewJSONL(&buf), WithWorkers(2)); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(toySpec().Cells()) {
		t.Fatalf("unflushed output: %d lines, want %d", len(lines), len(toySpec().Cells()))
	}
}

// TestApplyFaultsModels checks every model through Cell.FaultModel: the
// survivor Inject builds accounts for every fault, and Components, from
// the same seed, returns that survivor's component sizes in
// ComponentsInto's order with the same fault count. A cell whose model
// does not resolve gets a nil model, and runTrialBlock refuses it.
func TestApplyFaultsModels(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	ws := graph.NewWorkspace()
	for _, model := range Models() {
		m := Cell{Model: model}.FaultModel()
		if m == nil || m.Name() != model {
			t.Fatalf("Cell{Model: %q}.FaultModel() = %v", model, m)
		}
		sub, nf := m.Inject(g, 0.5, ws, xrand.New(5))
		_, labelled := sub.G.ComponentsInto(ws, nil)
		want := slices.Clone(labelled)
		sizes, cnf := m.Components(g, 0.5, ws, xrand.New(5))
		if cnf != nf || !slices.Equal(sizes, want) {
			t.Errorf("%s: Components gave %v with %d faults, want %v with %d", model, sizes, cnf, want, nf)
		}
		switch model {
		case ModelIIDEdge:
			if sub.G.N() != g.N() {
				t.Errorf("%s: vertex count changed", model)
			}
			if sub.G.M()+nf != g.M() {
				t.Errorf("%s: m=%d + faults=%d != %d", model, sub.G.M(), nf, g.M())
			}
		default:
			if sub.G.N()+nf != g.N() {
				t.Errorf("%s: n=%d + faults=%d != %d", model, sub.G.N(), nf, g.N())
			}
		}
	}
	bad := Cell{Measure: "toy", Model: "nope", Trials: 1}
	if m := bad.FaultModel(); m != nil {
		t.Errorf("unknown model resolved to %v", m)
	}
	out := runTrialBlock(g, bad, ws, 0, 1)
	recorderPool.Put(out.rec)
	if want := `sweep: unknown fault model "nope"`; out.errMsg != want {
		t.Errorf("runTrialBlock on an unknown model: err %q, want %q", out.errMsg, want)
	}
}
