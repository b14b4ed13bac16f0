package harness

// This file holds the one parallel-execution primitive: RunOrdered,
// the ordered worker pool the sweep engine streams through. Jobs are
// dispatched in index order and their results emitted in index order,
// incrementally, no matter how the scheduler interleaves the workers —
// so output files are byte-identical across worker counts, and the
// pool always computes the results it can emit next.
//
// Cancellation has a hard invariant: it stops the *dispatch* of new
// jobs, never the emission of dispatched ones. Every index handed to a
// worker runs to completion and is emitted, so the emitted set is
// exactly the dispatched prefix [0, d) of the job sequence — which is
// what lets a cancelled sweep's output file serve as a valid -resume
// prefix that keeps every job it computed.

import (
	"context"
	"sync"
)

// RunOrdered executes run(worker, i) for i in [0, n) on up to workers
// goroutines and calls emit(i, v) for every job in strictly increasing
// index order, streaming each completed prefix as soon as it is
// available rather than waiting for the whole batch. emit is never
// called concurrently. run must be safe for concurrent invocation; it
// receives the index of the worker goroutine executing it (in [0,
// effective workers)), so callers can thread per-worker state — scratch
// workspaces, arenas — without locking. Worker identity must never
// influence results, only which scratch memory computes them; the
// ordered emit path makes any violation visible as a byte diff across
// -workers values.
//
// When ctx is cancelled, no further jobs are dispatched, but every job
// already handed to a worker runs to completion — the pool drains at a
// job boundary rather than tearing mid-job. Dispatch is in index order,
// so the completed set is a contiguous prefix [0, d) and every job in
// it is emitted; none is discarded. Returns ctx.Err() if cancellation
// prevented any job from being dispatched, nil if all n jobs ran (even
// if ctx was cancelled after the last dispatch).
func RunOrdered[T any](ctx context.Context, n, workers int, run func(worker, i int) T, emit func(i int, v T)) error {
	if n <= 0 {
		return nil
	}
	var (
		mu   sync.Mutex
		done = make([]bool, n)
		vals = make([]T, n)
		next int
	)
	return parallelFor(ctx, n, workers, func(worker, i int) {
		v := run(worker, i)
		mu.Lock()
		defer mu.Unlock()
		vals[i], done[i] = v, true
		for next < n && done[next] {
			emit(next, vals[next])
			var zero T
			vals[next] = zero // release the emitted value
			next++
		}
	})
}

// parallelFor runs fn(worker, i) for i in [0, n) on up to workers
// goroutines; fn additionally receives the index of the worker
// goroutine running it. Once ctx is cancelled no further indices are
// dispatched, but every index a worker already received runs to
// completion before the pool drains. Dispatch is strictly sequential,
// so the executed set is always the contiguous prefix [0, d) for some
// d ≤ n. Returns ctx.Err() if cancellation prevented any index from
// being dispatched, nil otherwise.
func parallelFor(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, i)
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				fn(worker, i)
			}
		}(w)
	}
	var err error
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		// The double select biases toward cancellation: when both the
		// worker pool and ctx are ready, plain select would pick at
		// random and could keep dispatching long after cancellation.
		select {
		case <-done:
			err = ctx.Err()
			break dispatch
		default:
		}
		select {
		case next <- i:
		case <-done:
			err = ctx.Err()
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return err
}
