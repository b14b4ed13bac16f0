package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunOrderedEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 2} {
		const n = 50
		// Scramble completion order without timing: each job waits for
		// the next one in its window of w consecutive indices, so every
		// window finishes in reverse index order. A window's last job
		// waits for nothing, so the w workers can never all be blocked
		// on an undispatched job (and at w = 1 nothing waits).
		w := min(workers, n)
		finished := make([]chan struct{}, n)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		var got []int
		RunOrdered(context.Background(), n, workers,
			func(_, i int) int {
				if (i+1)%w != 0 && i+1 < n {
					<-finished[i+1]
				}
				close(finished[i])
				return i * 3
			},
			func(i, v int) {
				if v != i*3 {
					t.Errorf("workers=%d: emit(%d) got value %d, want %d", workers, i, v, i*3)
				}
				got = append(got, i)
			})
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission order %v not ascending at %d", workers, got[:i+1], i)
			}
		}
	}
}

func TestRunOrderedStreamsPrefixes(t *testing.T) {
	// Job 0 finishes last; nothing may be emitted before it, and then
	// everything arrives. This exercises the reorder buffer rather than
	// a trivial run-then-dump. The last w−1 jobs are sentinels that hold
	// their workers until job 0 has looked: once all of them have
	// started, every worker but job 0's has handed back each earlier job
	// it ran, so jobs 1 … n−w are done and offered for emission.
	for _, workers := range []int{1, 2, 4} {
		const n = 12
		w := min(workers, n)
		var sentinels sync.WaitGroup
		sentinels.Add(w - 1)
		looked := make(chan struct{})
		var emitted atomic.Int32
		var got []int
		RunOrdered(context.Background(), n, workers,
			func(_, i int) int {
				switch {
				case i == 0:
					sentinels.Wait()
					if g := emitted.Load(); g != 0 {
						t.Errorf("workers=%d: emitted %d results before job 0 completed", workers, g)
					}
					close(looked)
				case i > n-w:
					sentinels.Done()
					<-looked
				}
				return i
			},
			func(i, v int) {
				emitted.Add(1)
				got = append(got, i)
			})
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d after completion", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission order %v not ascending at %d", workers, got[:i+1], i)
			}
		}
	}
}

func TestRunOrderedZeroAndOne(t *testing.T) {
	calls := 0
	RunOrdered(context.Background(), 0, 4, func(_, i int) int { return i }, func(i, v int) { calls++ })
	if calls != 0 {
		t.Fatalf("n=0 emitted %d", calls)
	}
	RunOrdered(context.Background(), 1, 4, func(_, i int) int { return 9 }, func(i, v int) {
		if i != 0 || v != 9 {
			t.Fatalf("n=1 emitted (%d,%d)", i, v)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("n=1 emitted %d times", calls)
	}
}

func TestRunOrderedCtxCancelEmitsContiguousPrefix(t *testing.T) {
	// Cancel mid-run and check the two drain invariants: emission stops
	// at a job boundary, and the emitted set is an exact contiguous
	// prefix [0, d) — dispatched jobs all finish and emit, undispatched
	// jobs never run. Job 20 cancels only once jobs 21 … 20+w−1 are
	// running, and they finish only after the cancel, so every worker
	// holds a dispatched job when dispatch stops, and each of those must
	// still be emitted.
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		w := min(workers, n)
		ctx, cancel := context.WithCancel(context.Background())
		var inFlight sync.WaitGroup
		inFlight.Add(w - 1)
		var got []int
		var ran atomic.Int32
		err := RunOrdered(ctx, n, workers,
			func(_, i int) int {
				ran.Add(1)
				switch {
				case i == 20:
					inFlight.Wait()
					cancel()
				case i > 20 && i < 20+w:
					inFlight.Done()
					<-ctx.Done()
				}
				return i
			},
			func(i, v int) {
				if v != i {
					t.Errorf("workers=%d: emit(%d) carried %d", workers, i, v)
				}
				got = append(got, i)
			})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned nil error", workers)
		}
		if len(got) >= n {
			t.Fatalf("workers=%d: cancellation did not stop the run (%d jobs emitted)", workers, len(got))
		}
		if len(got) < 20+w {
			t.Fatalf("workers=%d: jobs 0…%d were dispatched but only %d emitted", workers, 20+w-1, len(got))
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emitted set has a hole: position %d holds job %d", workers, i, idx)
			}
		}
		if int(ran.Load()) != len(got) {
			t.Errorf("workers=%d: %d jobs ran but %d were emitted — a dispatched job was dropped", workers, ran.Load(), len(got))
		}
	}
}

func TestRunOrderedCtxUncancelledMatchesRunOrdered(t *testing.T) {
	const n = 40
	var got []int
	if err := RunOrdered(context.Background(), n, 4,
		func(_, i int) int { return i * 2 },
		func(i, v int) { got = append(got, v) }); err != nil {
		t.Fatalf("RunOrdered: %v", err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("emit %d carried %d", i, v)
		}
	}
}

func TestRunOrderedCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		calls := 0
		err := RunOrdered(ctx, 10, workers,
			func(_, i int) int { return i },
			func(i, v int) { calls++ })
		if err == nil {
			t.Fatalf("workers=%d: pre-cancelled run returned nil", workers)
		}
		if calls != 0 {
			t.Fatalf("workers=%d: pre-cancelled run emitted %d jobs", workers, calls)
		}
	}
}

func TestParallelForWorkersCtxCancel(t *testing.T) {
	// Jobs after 10 hold their workers until job 10 has cancelled, so
	// dispatch cannot run far past the cancel, whatever the scheduler
	// does.
	const n = 500
	ctx, cancel := context.WithCancel(context.Background())
	var ran [n]atomic.Bool
	err := parallelFor(ctx, n, 4, func(worker, i int) {
		switch {
		case i == 10:
			cancel()
		case i > 10:
			<-ctx.Done()
		}
		ran[i].Store(true)
	})
	if err == nil {
		t.Fatal("cancelled parallelFor returned nil")
	}
	d := 0
	for d < n && ran[d].Load() {
		d++
	}
	if d <= 10 || d >= n {
		t.Fatalf("ran a prefix of %d of %d jobs, want one that covers job 10 and stops", d, n)
	}
	for i := d; i < n; i++ {
		if ran[i].Load() {
			t.Fatalf("ran jobs [0, %d) and job %d: the executed set has a hole", d, i)
		}
	}
}
