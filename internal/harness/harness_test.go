package harness

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"faultexp/internal/stats"
)

func TestConfigHelpers(t *testing.T) {
	q := Config{Quick: true, Seed: 1}
	f := Config{Quick: false, Seed: 1}
	if q.Pick(10, 100) != 10 || f.Pick(10, 100) != 100 {
		t.Fatal("Pick wrong")
	}
	// RNG is deterministic per seed.
	if (Config{Seed: 5}).RNG().Uint64() != (Config{Seed: 5}).RNG().Uint64() {
		t.Fatal("config RNG not deterministic")
	}
}

func TestReportChecksAndRender(t *testing.T) {
	e := &Experiment{ID: "EX", Title: "demo"}
	rep := e.NewReport()
	rep.AddTable(stats.NewTable("t", "a", "b"))
	rep.Checkf(true, "good", "value %d", 42)
	rep.Checkf(false, "bad", "oops")
	if rep.Passed() {
		t.Fatal("report with a failing check must not pass")
	}
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"EX", "demo", "[PASS] good: value 42", "[FAIL] bad: oops"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	const n = 1000
	var hits [n]int32
	parallelFor(context.Background(), n, 8, func(_, i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// Degenerate paths.
	count := 0
	parallelFor(context.Background(), 3, 1, func(_, i int) { count++ })
	if count != 3 {
		t.Fatal("serial path wrong")
	}
	parallelFor(context.Background(), 0, 4, func(_, i int) { t.Fatal("should not run") })
}
