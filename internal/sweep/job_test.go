package sweep

// Tests for the context-aware Job API: lifecycle, lock-free snapshots,
// and the core cancellation contract — a cancelled job's output is the
// exact contiguous prefix of the run's cell sequence, resumable to bytes
// identical to an uninterrupted run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// jobRef runs the toy grid uninterrupted through the Job API and returns
// its JSONL bytes — the reference every cancellation test diffs against.
func jobRef(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	j, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)), WithWorkers(2))
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
	if want := len(toySpec().Cells()); sum.Cells != want {
		t.Fatalf("clean job ran %d cells, want %d", sum.Cells, want)
	}
	return buf.Bytes()
}

// TestJobCleanRunMatchesRun: two clean runs of one grid on different
// pool sizes emit identical bytes.
func TestJobCleanRunMatchesRun(t *testing.T) {
	var runBuf bytes.Buffer
	if _, err := runSpec(toySpec(), NewJSONL(&runBuf), WithWorkers(3)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := jobRef(t); !bytes.Equal(got, runBuf.Bytes()) {
		t.Errorf("workers=2 output differs from workers=3:\n--- 2 ---\n%s--- 3 ---\n%s", got, runBuf.Bytes())
	}
}

// TestJobCancelResumesByteIdentical is the acceptance-criteria test:
// cancel a job mid-run, verify the output is a clean prefix ScanResume
// accepts, resume with WithSkipCells, and require the final bytes to equal
// the uninterrupted run exactly.
func TestJobCancelResumesByteIdentical(t *testing.T) {
	want := jobRef(t)
	cells := toySpec().Cells()

	for _, cancelAfter := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("cancelAfter=%d", cancelAfter), func(t *testing.T) {
			var buf bytes.Buffer
			var j *Job
			var once sync.Once
			j, err := NewJob(toySpec(),
				WithWriter(NewJSONL(&buf)),
				WithWorkers(3),
				WithProgress(func(done, total int) {
					if done >= cancelAfter {
						once.Do(j.Cancel)
					}
				}))
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			if err := j.Start(context.Background()); err != nil {
				t.Fatalf("Start: %v", err)
			}
			sum, werr := j.Wait()
			if werr == nil {
				// The pool can hold every remaining unit before the
				// cancel lands; the drain contract then completes the
				// run cleanly. The outcome must be the full run,
				// byte-identical.
				if sum.Cells != len(cells) {
					t.Fatalf("clean finish after cancel ran %d of %d cells", sum.Cells, len(cells))
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatal("clean finish after cancel differs from the uninterrupted run")
				}
				return
			}
			if !errors.Is(werr, context.Canceled) {
				t.Fatalf("Wait error %v does not wrap context.Canceled", werr)
			}
			if s := j.Snapshot(); s.State != JobCancelled {
				t.Fatalf("state after cancel = %q, want %q", s.State, JobCancelled)
			}
			if sum.Cells >= len(cells) || sum.Cells < cancelAfter {
				t.Fatalf("cancelled after %d cells (requested at %d of %d)", sum.Cells, cancelAfter, len(cells))
			}

			// The output must be a byte-prefix of the uninterrupted run,
			// ending on a record boundary, and ScanResume must accept it
			// as exactly sum.Cells complete cells.
			got := buf.Bytes()
			if !bytes.HasPrefix(want, got) {
				t.Fatalf("cancelled output is not a prefix of the uninterrupted run:\n--- got ---\n%s", got)
			}
			if len(got) > 0 && got[len(got)-1] != '\n' {
				t.Fatal("cancelled output ends mid-record")
			}
			st, err := ScanResume(bytes.NewReader(got), cells)
			if err != nil {
				t.Fatalf("ScanResume rejected the cancelled prefix: %v", err)
			}
			if st.Done != sum.Cells || st.Truncated {
				t.Fatalf("ScanResume: done=%d truncated=%v, want done=%d clean", st.Done, st.Truncated, sum.Cells)
			}

			// Resume: append the remainder and require byte identity.
			rj, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)), WithSkipCells(st.Done), WithWorkers(2))
			if err != nil {
				t.Fatalf("NewJob(resume): %v", err)
			}
			if err := rj.Start(context.Background()); err != nil {
				t.Fatalf("Start(resume): %v", err)
			}
			if _, err := rj.Wait(); err != nil {
				t.Fatalf("Wait(resume): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("interrupted+resumed output differs from uninterrupted run:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
			}
			if s := rj.Snapshot(); s.CellsSkipped != st.Done {
				t.Errorf("resume snapshot CellsSkipped = %d, want %d", s.CellsSkipped, st.Done)
			}
		})
	}
}

func TestJobSnapshotLifecycle(t *testing.T) {
	spec := toySpec()
	var buf bytes.Buffer
	j, err := NewJob(spec, WithWriter(NewJSONL(&buf)))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if s := j.Snapshot(); s.State != JobPending || s.CellsDone != 0 || s.Elapsed != 0 {
		t.Fatalf("pending snapshot = %+v", s)
	}
	if s := j.Snapshot(); s.CellsTotal != len(spec.Cells()) {
		t.Fatalf("CellsTotal = %d, want %d", s.CellsTotal, len(spec.Cells()))
	}
	if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "before Start") {
		t.Fatalf("Wait before Start = %v, want refusal", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := j.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	s := j.Snapshot()
	if s.State != JobDone {
		t.Errorf("final state %q, want %q", s.State, JobDone)
	}
	if !s.State.Terminal() || JobRunning.Terminal() || JobPending.Terminal() {
		t.Error("Terminal() misclassifies states")
	}
	if s.CellsDone != len(spec.Cells()) {
		t.Errorf("CellsDone = %d, want %d", s.CellsDone, len(spec.Cells()))
	}
	if want := int64(len(spec.Cells()) * spec.Trials); s.TrialsDone != want {
		t.Errorf("TrialsDone = %d, want %d", s.TrialsDone, want)
	}
	if s.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", s.Elapsed)
	}
	// A terminal snapshot's elapsed is frozen.
	time.Sleep(5 * time.Millisecond)
	if s2 := j.Snapshot(); s2.Elapsed != s.Elapsed {
		t.Errorf("terminal Elapsed moved: %v then %v", s.Elapsed, s2.Elapsed)
	}
	select {
	case <-j.Done():
	default:
		t.Error("Done() channel not closed after Wait")
	}
}

func TestJobCancelBeforeStart(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	j.Cancel()
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start after Cancel: %v", err)
	}
	if _, err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if s := j.Snapshot(); s.State != JobCancelled || s.CellsDone != 0 {
		t.Fatalf("snapshot = %+v, want cancelled with 0 cells", s)
	}
	if buf.Len() != 0 {
		t.Errorf("pre-cancelled job wrote %d bytes", buf.Len())
	}
}

func TestJobParentContextCancels(t *testing.T) {
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	j, err := NewJob(toySpec(),
		WithWriter(NewJSONL(&buf)),
		WithWorkers(2),
		WithProgress(func(done, total int) { once.Do(cancel) }))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if err := j.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if s := j.Snapshot(); s.State != JobCancelled || s.Err == "" {
		t.Fatalf("snapshot = %+v, want cancelled with an err message", s)
	}
}

func TestJobWriterFailureFails(t *testing.T) {
	j, err := NewJob(toySpec(), WithWriter(&failWriter{left: 2}), WithWorkers(2))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Wait = %v, want writer failure", err)
	}
	if s := j.Snapshot(); s.State != JobFailed || !strings.Contains(s.Err, "disk full") {
		t.Fatalf("snapshot = %+v, want failed with the writer error", s)
	}
}

func TestJobBadGraphFails(t *testing.T) {
	spec := toySpec()
	spec.Families = []FamilySpec{{Family: "torus", Size: "4xnope"}}
	j, err := NewJob(spec, WithWriter(discardWriter{}))
	if err != nil {
		t.Fatalf("NewJob: %v (family sizes are resolved at Start)", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := j.Wait(); err == nil {
		t.Fatal("job with an unparsable family size succeeded")
	}
	if s := j.Snapshot(); s.State != JobFailed {
		t.Fatalf("state = %q, want %q", s.State, JobFailed)
	}
}

// TestJobCellLimit: WithCellLimit runs exactly the cells [skip,
// skip+n) of the (sharded) cell sequence, byte-identical to those lines
// of a full run, counts them as the run's total, and refuses a limit
// that does not fit the run.
func TestJobCellLimit(t *testing.T) {
	full, _ := runToBytes(t, toySpec(), 2)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1]
	for _, tc := range []struct {
		sh          Shard
		skip, limit int
	}{
		{Shard{}, 0, 1},
		{Shard{}, 3, 5},
		{Shard{}, 11, 1},
		{Shard{Index: 1, Count: 3}, 1, 2},
		{Shard{Index: 2, Count: 3}, 0, 4},
	} {
		var seq [][]byte
		for c := range lines {
			if !tc.sh.Enabled() || c%tc.sh.Count == tc.sh.Index {
				seq = append(seq, lines[c])
			}
		}
		var buf bytes.Buffer
		j, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)), WithShard(tc.sh), WithSkipCells(tc.skip), WithCellLimit(tc.limit), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if want := bytes.Join(seq[tc.skip:tc.skip+tc.limit], nil); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("shard %v skip %d limit %d:\n%swant:\n%s", tc.sh, tc.skip, tc.limit, buf.Bytes(), want)
		}
		if s := j.Snapshot(); s.CellsTotal != tc.limit || s.CellsDone != tc.limit {
			t.Errorf("shard %v skip %d limit %d: snapshot cells %d/%d", tc.sh, tc.skip, tc.limit, s.CellsDone, s.CellsTotal)
		}
	}
	for _, tc := range []struct{ skip, limit int }{{0, 0}, {0, -1}, {0, 13}, {5, 8}, {12, 1}} {
		if _, err := NewJob(toySpec(), WithSkipCells(tc.skip), WithCellLimit(tc.limit)); err == nil || !strings.Contains(err.Error(), "cell limit") {
			t.Errorf("skip %d limit %d on 12 cells: err = %v, want a cell limit refusal", tc.skip, tc.limit, err)
		}
	}
}

func TestNewJobValidates(t *testing.T) {
	bad := toySpec()
	bad.Measures = []string{"nope"}
	if _, err := NewJob(bad); err == nil {
		t.Error("NewJob accepted an unknown measure")
	}
	if _, err := NewJob(toySpec(), WithShard(Shard{Index: 5, Count: 3})); err == nil {
		t.Error("NewJob accepted an out-of-range shard")
	}
	if _, err := NewJob(toySpec(), WithSkipCells(10_000)); err == nil {
		t.Error("NewJob accepted an out-of-range skip")
	}
	// Negative worker counts must be refused up front, not panic on the
	// run goroutine (the serve daemon exposes specs to the network).
	if _, err := NewJob(toySpec(), WithWorkers(-1)); err == nil {
		t.Error("NewJob accepted workers = -1")
	}
	negSpec := toySpec()
	negSpec.Workers = -3
	if _, err := NewJob(negSpec); err == nil {
		t.Error("NewJob accepted a spec with workers = -3")
	}
	// A huge worker count is clamped to the cell count, not allocated.
	hugeSpec := toySpec()
	hugeSpec.Workers = 1 << 30
	hj, err := NewJob(hugeSpec, WithWriter(discardWriter{}))
	if err != nil {
		t.Fatalf("NewJob(huge workers): %v", err)
	}
	if err := hj.Start(context.Background()); err != nil {
		t.Fatalf("Start(huge workers): %v", err)
	}
	if _, err := hj.Wait(); err != nil {
		t.Errorf("Wait(huge workers): %v", err)
	}
	j, err := NewJob(toySpec(), WithShard(Shard{Index: 1, Count: 3}))
	if err != nil {
		t.Fatalf("NewJob(shard): %v", err)
	}
	if s := j.Snapshot(); s.Shard != (Shard{Index: 1, Count: 3}) {
		t.Errorf("snapshot shard = %v", s.Shard)
	}
	if j.Cells() != len(toySpec().ShardCells(Shard{Index: 1, Count: 3})) {
		t.Errorf("Cells() = %d", j.Cells())
	}
}

// TestJobSnapshotConcurrent hammers Snapshot from several goroutines
// while the job runs — with -race this pins the lock-free claim, and
// the monotonicity check pins that counters never go backwards.
func TestJobSnapshotConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)), WithWorkers(2))
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				s := j.Snapshot()
				if s.CellsDone < last {
					t.Errorf("CellsDone went backwards: %d after %d", s.CellsDone, last)
					return
				}
				last = s.CellsDone
				if s.State.Terminal() {
					return
				}
			}
		}()
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	wg.Wait()
}

// gatedTrial, when set, runs at the start of every trial of the "gated"
// measure with the trial's cell: the dispatch tests hold or cancel a
// job from inside a trial through it. Tests set it before Start and
// clear it after Wait, which orders both writes with the workers'
// reads.
var gatedTrial func(c Cell)

func init() {
	Register("gated", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		return TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
			if gatedTrial != nil {
				gatedTrial(c)
			}
			return observeDraw(t, ws, rng, rec)
		}}, nil
	}})
}

// dispatchSpec is a grid whose first family is its cheapest by
// UnitCost: torus:4x4's four cells, then torus:16x16's. A pool that
// dispatched the costliest units first would start on the second
// family, whose records cannot be written before the first family's.
// With trialParallel every trial is a block of its own.
func dispatchSpec(t *testing.T, trialParallel bool) *Spec {
	t.Helper()
	s := &Spec{
		Families: []FamilySpec{{Family: "torus", Size: "4x4"}, {Family: "torus", Size: "16x16"}},
		Measures: []string{"gated"},
		Models:   []string{ModelIIDNode},
		Rates:    []float64{0, 0.1, 0.2, 0.3},
		Trials:   4,
		Seed:     17,
	}
	if trialParallel {
		s.TrialParallel, s.TrialBlock = true, 1
	}
	p, err := s.Plan(Shard{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if fp := p.FamilyPlans; fp[0].CellCost >= fp[1].CellCost {
		t.Fatalf("UnitCost ranks %s (%g) above %s (%g); the test needs the reverse", fp[0].Token, fp[0].CellCost, fp[1].Token, fp[1].CellCost)
	}
	return s
}

// isSecondFamily reports whether c belongs to dispatchSpec's second,
// costlier family.
func isSecondFamily(c Cell) bool { return c.Family.Size == "16x16" }

// TestJobStreamsFromFirstCell: the pool computes units in cell order,
// so the first record is written while the costlier second family is
// still pending. Every second-family trial waits for that first record;
// a pool that took the second family first would stall until the
// deadline.
func TestJobStreamsFromFirstCell(t *testing.T) {
	for _, tp := range []bool{false, true} {
		t.Run(fmt.Sprintf("trial_parallel=%v", tp), func(t *testing.T) {
			spec := dispatchSpec(t, tp)
			first := make(chan struct{})
			var firstOnce, gaveUp sync.Once
			deadline, stop := context.WithTimeout(context.Background(), 10*time.Second)
			defer stop()
			gatedTrial = func(c Cell) {
				if !isSecondFamily(c) {
					return
				}
				select {
				case <-first:
				case <-deadline.Done():
					gaveUp.Do(func() { t.Error("a second-family trial waited 10 s for the first record") })
				}
			}
			defer func() { gatedTrial = nil }()
			j, err := NewJob(spec, WithWorkers(2), WithProgress(func(done, total int) {
				firstOnce.Do(func() { close(first) })
			}))
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			if err := j.Start(context.Background()); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if sum, err := j.Wait(); err != nil || sum.Cells != len(spec.Cells()) {
				t.Fatalf("Wait = %d cells, %v; want %d, nil", sum.Cells, err, len(spec.Cells()))
			}
		})
	}
}

// TestJobCancelKeepsComputedCells: the first second-family trial
// cancels the job. Every first-family cell was dispatched before it, so
// every one is written, and so is every other unit the pool had
// started: serially nothing computed is lost, and trial-parallel loses
// at most the finished blocks of the one cell that straddles the cut.
// The output is a resume prefix that completes to the uninterrupted
// bytes.
func TestJobCancelKeepsComputedCells(t *testing.T) {
	for _, tp := range []bool{false, true} {
		t.Run(fmt.Sprintf("trial_parallel=%v", tp), func(t *testing.T) {
			spec := dispatchSpec(t, tp)
			cells := spec.Cells()
			var ref bytes.Buffer
			if _, err := runSpec(spec, NewJSONL(&ref), WithWorkers(2)); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			var buf bytes.Buffer
			var j *Job
			var once sync.Once
			gatedTrial = func(c Cell) {
				if isSecondFamily(c) {
					once.Do(j.Cancel)
				}
			}
			defer func() { gatedTrial = nil }()
			j, err := NewJob(spec, WithWriter(NewJSONL(&buf)), WithWorkers(2))
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			if err := j.Start(context.Background()); err != nil {
				t.Fatalf("Start: %v", err)
			}
			sum, werr := j.Wait()
			gatedTrial = nil
			if !errors.Is(werr, context.Canceled) {
				t.Fatalf("Wait error %v does not wrap context.Canceled", werr)
			}

			s := j.Snapshot()
			if s.CellsDone < len(spec.Rates) {
				t.Errorf("cancel kept %d cells; all %d first-family cells were dispatched before it", s.CellsDone, len(spec.Rates))
			}
			excess := s.TrialsDone - int64(s.CellsDone*spec.Trials)
			if !tp && excess != 0 {
				t.Errorf("TrialsDone = %d with %d cells of %d trials written: a computed cell was discarded", s.TrialsDone, s.CellsDone, spec.Trials)
			}
			if tp && (excess < 0 || excess >= int64(spec.Trials)) {
				t.Errorf("TrialsDone = %d with %d cells of %d trials written: %d trials discarded, want fewer than one cell's", s.TrialsDone, s.CellsDone, spec.Trials, excess)
			}

			st, err := ScanResume(bytes.NewReader(buf.Bytes()), cells)
			if err != nil {
				t.Fatalf("ScanResume rejected the cancelled output: %v", err)
			}
			if st.Done != sum.Cells || st.Truncated {
				t.Fatalf("ScanResume: done=%d truncated=%v, want done=%d clean", st.Done, st.Truncated, sum.Cells)
			}
			if _, err := runSpec(spec, NewJSONL(&buf), WithSkipCells(st.Done), WithWorkers(2)); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
				t.Errorf("interrupted+resumed output differs from the uninterrupted run:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), ref.Bytes())
			}
		})
	}
}
