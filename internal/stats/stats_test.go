package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if !almost(s.Var, 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v", s.Var)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.StdErr != 0 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median = %v", m)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1
	}
	f := LinearFit(xs, ys)
	if !almost(f.Slope, 2.5, 1e-12) || !almost(f.Intercept, -1, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestPowerLawFit(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, -0.5)
	}
	k, c, r2 := PowerLawFit(xs, ys)
	if !almost(k, -0.5, 1e-10) || !almost(c, 3, 1e-9) || !almost(r2, 1, 1e-10) {
		t.Fatalf("power fit k=%v c=%v r2=%v", k, c, r2)
	}
}

func TestMonotoneThreshold(t *testing.T) {
	// f(x) = x², crossing target 0.25 at x = 0.5.
	got := MonotoneThreshold(0, 1, 0.25, 40, func(x float64) float64 { return x * x })
	if !almost(got, 0.5, 1e-9) {
		t.Fatalf("threshold = %v, want 0.5", got)
	}
}

func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Var >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit recovers any exact line through ≥2 distinct points.
func TestQuickLinearFitRecovers(t *testing.T) {
	f := func(a, b int8) bool {
		slope, icept := float64(a)/4, float64(b)/4
		xs := []float64{-2, 0, 1, 3, 7}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + icept
		}
		fit := LinearFit(xs, ys)
		return almost(fit.Slope, slope, 1e-9) && almost(fit.Intercept, icept, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1.5")
	tb.AddRow("betalonger", "2")
	tb.AddNote("n=%d", 2)
	out := tb.String()
	for _, want := range []string{"demo", "alpha", "betalonger", "note: n=2"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSummarizeNonfinite pins the skip-and-count contract: a NaN (or
// ±Inf) observation is counted in Nonfinite and otherwise excluded, no
// matter where in the slice it sits. The old code seeded Min/Max from
// xs[0], so a leading NaN poisoned every field while a mid-slice NaN
// silently vanished from Min/Max only.
func TestSummarizeNonfinite(t *testing.T) {
	nan := math.NaN()
	clean := Summarize([]float64{2, 4, 9})
	for name, xs := range map[string][]float64{
		"leading": {nan, 2, 4, 9},
		"middle":  {2, nan, 4, 9},
		"tail":    {2, 4, 9, nan},
	} {
		s := Summarize(xs)
		if s.Nonfinite != 1 || s.N != 3 {
			t.Fatalf("%s NaN: N=%d Nonfinite=%d, want 3/1", name, s.N, s.Nonfinite)
		}
		s.Nonfinite = clean.Nonfinite
		if s != clean {
			t.Errorf("%s NaN changed the finite moments: %+v vs %+v", name, s, clean)
		}
	}

	s := Summarize([]float64{1, math.Inf(1), 3, math.Inf(-1)})
	if s.N != 2 || s.Nonfinite != 2 || s.Min != 1 || s.Max != 3 || !almost(s.Mean, 2, 1e-12) {
		t.Errorf("±Inf handling: %+v", s)
	}

	if s := Summarize([]float64{nan, math.Inf(1)}); s.N != 0 || s.Nonfinite != 2 || s.Mean != 0 || s.Min != 0 {
		t.Errorf("all-nonfinite sample should have zero moments: %+v", s)
	}
}
