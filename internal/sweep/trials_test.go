package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"faultexp/internal/graph"
	"faultexp/internal/stats"
	"faultexp/internal/xrand"
)

func init() {
	// trialtoy: a trial-grained toy measure — one uniform draw per
	// trial plus a constant, exercising the full Register path.
	Register("trialtoy", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		rec.Const("n_const", float64(g.N()))
		return TrialRun{
			Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
				rec.Observe("draw", rng.Float64())
				return nil
			},
			Finish: func(rec *Recorder) error {
				rec.Const("observed_frac", float64(rec.Count("draw"))/float64(c.Trials))
				return nil
			},
		}, nil
	}})
}

func TestRecorderCompanions(t *testing.T) {
	rec := NewRecorder()
	for _, v := range []float64{2, 4, 9} {
		rec.Observe("x", v)
	}
	rec.Const("k", 7)
	m, err := rec.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"x_mean": 5, "x_min": 2, "x_max": 9, "k": 7,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	// Unbiased std of {2,4,9} is sqrt(13).
	if got := m["x_std"]; math.Abs(got-math.Sqrt(13)) > 1e-12 {
		t.Errorf("x_std = %g, want sqrt(13)", got)
	}
	if len(m) != 5 {
		t.Errorf("metric count %d, want 5: %v", len(m), m)
	}
	if rec.Count("x") != 3 || rec.Count("missing") != 0 {
		t.Errorf("Count wrong: x=%d missing=%d", rec.Count("x"), rec.Count("missing"))
	}
	if s := rec.Stream("x"); s.Max() != 9 {
		t.Errorf("Stream(x).Max = %g", s.Max())
	}
}

func TestRecorderCollisionAndEmpty(t *testing.T) {
	rec := NewRecorder()
	rec.Observe("x", 1)
	rec.Const("x_mean", 2)
	if _, err := rec.Metrics(); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Errorf("Metrics with colliding constant = %v, want collision error", err)
	}
	empty := NewRecorder()
	if _, err := empty.Metrics(); err == nil {
		t.Error("Metrics on empty recorder succeeded")
	}
	// A single observation still gets deterministic companions.
	one := NewRecorder()
	one.Observe("y", 3)
	m, err := one.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["y_mean"] != 3 || m["y_std"] != 0 || m["y_min"] != 3 || m["y_max"] != 3 {
		t.Errorf("single-trial companions: %v", m)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := NewRecorder()
	rec.Observe("x", 5)
	rec.Const("c", 1)
	rec.Reset()
	if rec.Count("x") != 0 {
		t.Errorf("Count after Reset = %d", rec.Count("x"))
	}
	rec.Observe("x", 2)
	m, err := rec.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["x_mean"] != 2 || len(m) != 4 {
		t.Errorf("post-Reset metrics: %v", m)
	}
}

// TestTrialSeedsIndependentOfTrialCount: growing a cell's trial budget
// must reproduce the original trials bit-for-bit — the property that
// makes per-trial seeding (vs. a sequential cell stream) worth having.
func TestTrialSeedsIndependentOfTrialCount(t *testing.T) {
	run := func(trials int) []float64 {
		c := Cell{Seed: 12345, Trials: trials}
		var out []float64
		err := RunTrials(c, nil, NewRecorder(), func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
			out = append(out, rng.Float64())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	short, long := run(3), run(10)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("trial %d draw changed when the budget grew: %v vs %v", i, short[i], long[i])
		}
	}
	// And distinct trials see distinct streams.
	seen := map[float64]bool{}
	for _, v := range long {
		if seen[v] {
			t.Fatalf("two trials drew the identical value %v", v)
		}
		seen[v] = true
	}
}

// TestTrialLoopNoAlloc pins the steady-state contract: with a warm
// recorder, the RunTrials loop body (reseed + observe) allocates
// nothing.
func TestTrialLoopNoAlloc(t *testing.T) {
	rec := NewRecorder()
	rec.Observe("x", 0) // warm the slot
	c := Cell{Seed: 9, Trials: 64}
	fn := TrialFunc(func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
		rec.Observe("x", rng.Float64())
		return nil
	})
	allocs := testing.AllocsPerRun(50, func() {
		if err := RunTrials(c, nil, rec, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunTrials allocates %.1f/op, want 0", allocs)
	}
}

// TestTrialMeasureEndToEnd drives the registered trialtoy measure
// through the full engine and checks the companion shape and
// determinism of the rendered record.
func TestTrialMeasureEndToEnd(t *testing.T) {
	spec := &Spec{
		Families: []FamilySpec{{Family: "torus", Size: "4x4"}},
		Measures: []string{"trialtoy"},
		Model:    ModelIIDNode,
		Rates:    []float64{0.1},
		Trials:   5,
		Seed:     77,
	}
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	sum, err := runSpec(spec, w, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 1 || sum.Errors != 0 {
		t.Fatalf("summary %+v", sum)
	}
	var r Result
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &r); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"draw_mean", "draw_std", "draw_min", "draw_max", "n_const", "observed_frac"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing: %v", k, r.Metrics)
		}
	}
	if r.Metrics["observed_frac"] != 1 || r.Metrics["n_const"] != 16 {
		t.Errorf("constants wrong: %v", r.Metrics)
	}
	if r.Metrics["draw_min"] > r.Metrics["draw_mean"] || r.Metrics["draw_mean"] > r.Metrics["draw_max"] {
		t.Errorf("companion ordering violated: %v", r.Metrics)
	}
	// The mean must match a hand-rolled replay of the trial seeds.
	var s stats.Stream
	cell := spec.Cells()[0]
	for trial := 0; trial < spec.Trials; trial++ {
		rng := xrand.New(TrialSeed(cell.Seed, trial))
		s.Add(rng.Float64())
	}
	if got := r.Metrics["draw_mean"]; got != s.Mean() {
		t.Errorf("draw_mean %v, want replayed %v", got, s.Mean())
	}
	if _, ok := LookupTrials("trialtoy"); !ok {
		t.Error("LookupTrials(trialtoy) not found")
	}
	if _, ok := LookupTrials("nosuch"); ok {
		t.Error("LookupTrials(nosuch) found an unregistered measure")
	}
}
