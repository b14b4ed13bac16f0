package harness

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderedEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 2} {
		const n = 50
		var got []int
		RunOrdered(context.Background(), n, workers, nil,
			func(_, i int) int {
				// Scramble completion order: later jobs finish sooner.
				time.Sleep(time.Duration((n-i)%7) * 100 * time.Microsecond)
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
	// a trivial run-then-dump.
	const n = 8
	release := make(chan struct{})
	var emitted atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunOrdered(context.Background(), n, 4, nil,
			func(_, i int) int {
				if i == 0 {
					<-release
				}
				return i
			},
			func(i, v int) { emitted.Add(1) })
	}()
	time.Sleep(20 * time.Millisecond)
	if g := emitted.Load(); g != 0 {
		t.Fatalf("emitted %d results before job 0 completed", g)
	}
	close(release)
	<-done
	if g := emitted.Load(); g != n {
		t.Fatalf("emitted %d of %d after completion", g, n)
	}
}

func TestRunOrderedZeroAndOne(t *testing.T) {
	calls := 0
	RunOrdered(context.Background(), 0, 4, nil, func(_, i int) int { return i }, func(i, v int) { calls++ })
	if calls != 0 {
		t.Fatalf("n=0 emitted %d", calls)
	}
	RunOrdered(context.Background(), 1, 4, nil, func(_, i int) int { return 9 }, func(i, v int) {
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
	// jobs never run.
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		ctx, cancel := context.WithCancel(context.Background())
		var got []int
		var ran atomic.Int32
		err := RunOrdered(ctx, n, workers, nil,
			func(_, i int) int {
				ran.Add(1)
				if i == 20 {
					cancel()
				}
				time.Sleep(50 * time.Microsecond)
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
		if len(got) < 21 {
			t.Fatalf("workers=%d: job 20 was dispatched but only %d jobs emitted", workers, len(got))
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
	if err := RunOrdered(context.Background(), n, 4, nil,
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
		err := RunOrdered(ctx, 10, workers, nil,
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
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := parallelFor(ctx, 500, 4, func(worker, i int) {
		if i == 10 {
			cancel()
		}
		ran.Add(1)
		time.Sleep(20 * time.Microsecond)
	})
	if err == nil {
		t.Fatal("cancelled parallelFor returned nil")
	}
	if g := ran.Load(); g == 0 || g >= 500 {
		t.Fatalf("ran %d of 500 jobs, want a proper nonempty prefix", g)
	}
}

func TestRunOrderedDispatchEmitsInIndexOrder(t *testing.T) {
	// Dispatch in reverse (and a shuffled) order; emission must still be
	// the ascending index sequence with the right values — the dispatch
	// permutation is invisible in the output.
	const n = 60
	reverse := make([]int, n)
	for i := range reverse {
		reverse[i] = n - 1 - i
	}
	shuffled := make([]int, n)
	for i := range shuffled {
		shuffled[i] = (i*37 + 11) % n // 37 is coprime to 60: a permutation
	}
	for _, order := range [][]int{nil, reverse, shuffled} {
		for _, workers := range []int{1, 2, 4} {
			var got []int
			err := RunOrdered(context.Background(), n, workers, order,
				func(_, i int) int {
					time.Sleep(time.Duration(i%5) * 50 * time.Microsecond)
					return i * 7
				},
				func(i, v int) {
					if v != i*7 {
						t.Errorf("workers=%d: emit(%d) carried %d, want %d", workers, i, v, i*7)
					}
					got = append(got, i)
				})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), n)
			}
			for i, idx := range got {
				if idx != i {
					t.Fatalf("workers=%d order=%v: emission not ascending at %d: %v", workers, order != nil, i, got[:i+1])
				}
			}
		}
	}
}

func TestRunOrderedDispatchCancelStillContiguousPrefix(t *testing.T) {
	// With reverse dispatch, cancellation completes a prefix of the
	// DISPATCH order (high indices); the emitted set must still be a
	// contiguous prefix of the INDEX order — possibly empty, never holed.
	const n = 100
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got []int
	var ran atomic.Int32
	err := RunOrdered(ctx, n, 4, order,
		func(_, i int) int {
			if ran.Add(1) == 30 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
			return i
		},
		func(i, v int) { got = append(got, i) })
	cancel()
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emitted set has a hole at %d: %v", i, got[:i+1])
		}
	}
	if len(got) >= n {
		t.Fatalf("cancellation did not stop the run (%d emitted)", len(got))
	}
}

func TestRunOrderedDispatchBadOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched dispatch order did not panic")
		}
	}()
	RunOrdered(context.Background(), 5, 2, []int{0, 1},
		func(_, i int) int { return i }, func(int, int) {})
}
