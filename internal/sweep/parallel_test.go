package sweep

// Trial-parallel mode: the byte-identity matrix (workers × shard ×
// cancel/resume), the serial-equivalence guarantees, the validation
// surface, and the concurrent graph lifecycle.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/xrand"
)

// trialParSpec is the trial-parallel toy grid: two families × two rates
// of the trial-grained trialtoy measure, 10 trials in blocks of 3 (so
// every cell folds 4 blocks, the last one short).
func trialParSpec() *Spec {
	return &Spec{
		Families: []FamilySpec{
			{Family: "torus", Size: "4x4"},
			{Family: "hypercube", Size: "4"},
		},
		Measures:      []string{"trialtoy"},
		Model:         ModelIIDNode,
		Rates:         []float64{0, 0.25},
		Trials:        10,
		Seed:          42,
		TrialParallel: true,
		TrialBlock:    3,
	}
}

func runJobToBytes(t *testing.T, spec *Spec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := runSpec(spec, NewJSONL(&buf), WithWorkers(workers)); err != nil {
		t.Fatalf("run(workers=%d): %v", workers, err)
	}
	return buf.Bytes()
}

// TestTrialParallelByteIdenticalAcrossWorkers is the tentpole guarantee
// extended to trial blocks: the block partition — not the worker count,
// not the order blocks finish in — fixes the fold order, so output bytes
// are identical for any pool size.
func TestTrialParallelByteIdenticalAcrossWorkers(t *testing.T) {
	spec := trialParSpec()
	ref := runJobToBytes(t, spec, 1)
	for _, workers := range []int{2, 8} {
		if got := runJobToBytes(t, trialParSpec(), workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d output differs from workers=1:\n--- ref ---\n%s\n--- got ---\n%s", workers, ref, got)
		}
	}
	// Every record advertises its block partition — the resume contract.
	for i, line := range bytes.Split(bytes.TrimSpace(ref), []byte("\n")) {
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.TrialBlock != 3 {
			t.Errorf("record %d trial_block = %d, want 3", i, r.TrialBlock)
		}
	}
}

// TestTrialParallelMatchesSerial pins the relationship between the two
// modes: every individual trial is bit-identical (same TrialSeed), so
// order-insensitive statistics — min, max, counts, constants — agree
// exactly; only the streamed mean/std may differ, and then only in the
// last ulp from the blocked fold order.
func TestTrialParallelMatchesSerial(t *testing.T) {
	serial := trialParSpec()
	serial.TrialParallel = false
	serial.TrialBlock = 0
	parse := func(raw []byte) []Result {
		var rs []Result
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var r Result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		return rs
	}
	ser := parse(runJobToBytes(t, serial, 2))
	par := parse(runJobToBytes(t, trialParSpec(), 2))
	if len(ser) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(ser), len(par))
	}
	for i := range ser {
		s, p := ser[i], par[i]
		if s.Seed != p.Seed || s.Err != "" || p.Err != "" {
			t.Fatalf("record %d mismatch or error: %+v vs %+v", i, s, p)
		}
		if s.TrialBlock != 0 || p.TrialBlock != 3 {
			t.Errorf("record %d trial_block: serial %d, parallel %d", i, s.TrialBlock, p.TrialBlock)
		}
		for _, k := range []string{"draw_min", "draw_max", "n_const", "observed_frac"} {
			if s.Metrics[k] != p.Metrics[k] {
				t.Errorf("record %d %s: serial %v, parallel %v (must be exact)", i, k, s.Metrics[k], p.Metrics[k])
			}
		}
		for _, k := range []string{"draw_mean", "draw_std"} {
			if d := math.Abs(s.Metrics[k] - p.Metrics[k]); d > 1e-12 {
				t.Errorf("record %d %s: serial %v, parallel %v (beyond fold-order tolerance)", i, k, s.Metrics[k], p.Metrics[k])
			}
		}
	}
}

// TestTrialParallelShardMerge: trial blocks compose with -shard i/m +
// merge exactly as cells do — per-shard output is byte-deterministic
// and the merged stream equals the unsharded run.
func TestTrialParallelShardMerge(t *testing.T) {
	want := runJobToBytes(t, trialParSpec(), 2)
	var shards []io.Reader
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		j, err := NewJob(trialParSpec(),
			WithWriter(NewJSONL(&buf)),
			WithWorkers(3),
			WithShard(Shard{Index: i, Count: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards = append(shards, bytes.NewReader(buf.Bytes()))
	}
	var merged bytes.Buffer
	n, err := MergeShards(shards, &merged, nil, trialParSpec())
	if err != nil {
		t.Fatal(err)
	}
	if wantCells := len(trialParSpec().Cells()); n != wantCells {
		t.Fatalf("merged %d records, want %d", n, wantCells)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Error("merged shards differ from the unsharded run")
	}
}

// TestTrialParallelCancelResume: a cancelled trial-parallel run leaves a
// clean cell-boundary prefix (a part-folded cell never reaches the
// writer), ScanResume accepts it, and the resume completes to bytes
// identical to an uninterrupted run.
func TestTrialParallelCancelResume(t *testing.T) {
	want := runJobToBytes(t, trialParSpec(), 1)
	cells := trialParSpec().Cells()
	var buf bytes.Buffer
	var once sync.Once
	var j *Job
	j, err := NewJob(trialParSpec(),
		WithWriter(NewJSONL(&buf)),
		WithWorkers(2),
		WithProgress(func(done, total int) {
			if done >= 1 {
				once.Do(j.Cancel)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum, werr := j.Wait()
	if werr == nil {
		// Everything was dispatched before the cancel landed and the
		// drain completed the run; the output must be the full bytes.
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("clean finish after cancel differs from the uninterrupted run")
		}
		return
	}
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancel error = %v, want context.Canceled wrap", werr)
	}
	if !bytes.HasPrefix(want, buf.Bytes()) {
		t.Fatal("cancelled output is not a byte-prefix of the full run")
	}
	st, err := ScanResume(bytes.NewReader(buf.Bytes()), cells)
	if err != nil {
		t.Fatalf("ScanResume rejects the cancelled prefix: %v", err)
	}
	if st.Done != sum.Cells || st.Truncated {
		t.Fatalf("resume state %+v, summary %+v", st, sum)
	}
	rj, err := NewJob(trialParSpec(), WithWriter(NewJSONL(&buf)), WithSkipCells(st.Done), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rj.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rj.Wait(); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("resumed trial-parallel output differs from the uninterrupted run")
	}
}

// TestTrialParallelResumeRefusesCrossMode: serial and trial-parallel
// streams differ in the last ulp, so splicing one onto the other would
// silently mix fold orders — ScanResume must refuse in both directions.
func TestTrialParallelResumeRefusesCrossMode(t *testing.T) {
	serial := trialParSpec()
	serial.TrialParallel = false
	serial.TrialBlock = 0
	serialOut := runJobToBytes(t, serial, 1)
	parOut := runJobToBytes(t, trialParSpec(), 1)

	if _, err := ScanResume(bytes.NewReader(serialOut), trialParSpec().Cells()); err == nil || !strings.Contains(err.Error(), "do not splice") {
		t.Errorf("serial output accepted for a trial-parallel resume: %v", err)
	}
	if _, err := ScanResume(bytes.NewReader(parOut), serial.Cells()); err == nil || !strings.Contains(err.Error(), "do not splice") {
		t.Errorf("trial-parallel output accepted for a serial resume: %v", err)
	}
	block5 := trialParSpec()
	block5.TrialBlock = 5
	if _, err := ScanResume(bytes.NewReader(parOut), block5.Cells()); err == nil || !strings.Contains(err.Error(), "do not splice") {
		t.Errorf("block-3 output accepted for a block-5 resume: %v", err)
	}
}

// TestTrialParallelValidate covers the spec surface for the mode.
func TestTrialParallelValidate(t *testing.T) {
	base := trialParSpec()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid trial-parallel spec rejected: %v", err)
	}

	s := trialParSpec()
	s.TrialParallel = false
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "trial_block") {
		t.Errorf("trial_block without trial_parallel accepted: %v", err)
	}

	s = trialParSpec()
	s.TrialBlock = -1
	if err := s.Validate(); err == nil {
		t.Error("negative trial_block accepted")
	}

	s = trialParSpec()
	s.TrialBlock = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("trial_block 0 rejected: %v", err)
	}
	if s.TrialBlock != DefaultTrialBlock {
		t.Errorf("trial_block 0 normalized to %d, want %d", s.TrialBlock, DefaultTrialBlock)
	}

	s = trialParSpec()
	s.RateMode = RateModeCoupled
	if err := s.Validate(); err == nil {
		t.Error("coupled rate mode accepted under trial-parallel")
	}

	// Cells carry the partition; serial specs leave it zero.
	for _, c := range trialParSpec().Cells() {
		if c.TrialBlock != 3 {
			t.Fatalf("cell TrialBlock = %d, want 3", c.TrialBlock)
		}
	}
	serial := trialParSpec()
	serial.TrialParallel = false
	serial.TrialBlock = 0
	for _, c := range serial.Cells() {
		if c.TrialBlock != 0 {
			t.Fatalf("serial cell TrialBlock = %d, want 0", c.TrialBlock)
		}
	}
}

// TestTrialMeasuresLists checks the registry view the validator names in
// its error messages: Measures lists every trial registration, sorted,
// and every listed name resolves through LookupTrials.
func TestTrialMeasuresLists(t *testing.T) {
	names := Measures()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Measures() = %v, not sorted", names)
	}
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
		if _, ok := LookupTrials(n); !ok {
			t.Errorf("Measures() lists %q, which LookupTrials cannot resolve", n)
		}
	}
	for _, want := range []string{"trialtoy", "toy", "ctoy"} {
		if !has[want] {
			t.Errorf("Measures() = %v, missing %s", names, want)
		}
	}
}

// TestBlockCount pins the partition arithmetic the byte contract rests
// on.
func TestBlockCount(t *testing.T) {
	cases := []struct{ trials, block, want int }{
		{10, 3, 4}, {10, 5, 2}, {10, 10, 1}, {10, 64, 1},
		{10, 0, 1}, {1, 1, 1}, {64, 64, 1}, {65, 64, 2},
	}
	for _, c := range cases {
		if got := blockCount(c.trials, c.block); got != c.want {
			t.Errorf("blockCount(%d, %d) = %d, want %d", c.trials, c.block, got, c.want)
		}
	}
}

// TestUnitCostOrdering: the dry run's cost estimate must grow with
// size, trial count, and sample budget.
func TestUnitCostOrdering(t *testing.T) {
	exact := Precision{}
	sampled := Precision{Sampled: true, K: 8}
	if UnitCost(1000, 2000, 10, exact) <= UnitCost(100, 200, 10, exact) {
		t.Error("cost not monotone in graph size")
	}
	if UnitCost(100, 200, 20, exact) <= UnitCost(100, 200, 10, exact) {
		t.Error("cost not monotone in trials")
	}
	if UnitCost(100, 200, 10, sampled) != 8*UnitCost(100, 200, 10, exact) {
		t.Error("sampled cost is not K× the exact cost")
	}
}

// TestRecorderMergeFrom pins the fold semantics: streams merge
// (order-insensitive moments exact), constants overwrite, and empty
// pooled residue slots are skipped.
func TestRecorderMergeFrom(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	for _, v := range []float64{1, 5} {
		a.Observe("x", v)
	}
	for _, v := range []float64{3, 9, 2} {
		b.Observe("x", v)
	}
	b.Observe("only_b", 7)
	a.Const("c", 1)
	b.Const("c", 2)
	a.MergeFrom(b)
	m, err := a.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["x_min"] != 1 || m["x_max"] != 9 {
		t.Errorf("merged extremes: %v", m)
	}
	if a.Count("x") != 5 {
		t.Errorf("merged count = %d, want 5", a.Count("x"))
	}
	if m["x_mean"] != 4 {
		t.Errorf("merged mean = %v, want 4", m["x_mean"])
	}
	if m["only_b_mean"] != 7 {
		t.Errorf("stream created by merge: %v", m)
	}
	if m["c"] != 2 {
		t.Errorf("const after merge = %v, want the newer 2", m["c"])
	}
}

// TestGraphEntryLifecycle exercises the lazy build + preset-refcount
// release under real concurrency (meaningful under -race): one build
// however many racers, graph dropped exactly when the last release
// lands.
func TestGraphEntryLifecycle(t *testing.T) {
	const racers = 16
	e := &graphEntry{
		fam:    FamilySpec{Family: "torus", Size: "8x8"},
		budget: gen.DefaultBudget,
		seed:   xrand.SeedAt(1, 2),
	}
	e.refs.Add(racers)
	var built atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := e.acquire(&built)
			if err != nil {
				t.Errorf("acquire: %v", err)
			} else if g.N() != 64 {
				t.Errorf("acquired graph has %d vertices, want 64", g.N())
			}
			e.release()
		}()
	}
	wg.Wait()
	if got := built.Load(); got != 1 {
		t.Errorf("graph built %d times, want 1", got)
	}
	if e.g != nil {
		t.Error("graph not released after the last reference")
	}
}

// TestJobSnapshotGraphCounts: the lifecycle counters must reach
// built == total on a clean run and surface through Snapshot.
func TestJobSnapshotGraphCounts(t *testing.T) {
	var buf bytes.Buffer
	spec := trialParSpec()
	j, err := NewJob(spec, WithWriter(NewJSONL(&buf)), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	s := j.Snapshot()
	if s.GraphsTotal != len(spec.Families) {
		t.Errorf("GraphsTotal = %d, want %d", s.GraphsTotal, len(spec.Families))
	}
	if s.GraphsBuilt != s.GraphsTotal {
		t.Errorf("GraphsBuilt = %d, want %d", s.GraphsBuilt, s.GraphsTotal)
	}
	if want := int64(len(spec.Cells()) * spec.Trials); s.TrialsDone != want {
		t.Errorf("TrialsDone = %d, want %d", s.TrialsDone, want)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"graphs_built"`, `"graphs_total"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("snapshot JSON missing %s: %s", key, raw)
		}
	}
}
