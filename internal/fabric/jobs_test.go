package fabric

import (
	"context"
	"sync"
	"testing"
)

// TestAdmissionRacesStop races a queued job's wait for the only slot of
// a one-slot pool against its stop, many times: exactly one of
// "admitted" and "stopped while queued" wins, a job whose stop won never
// holds the slot, and the pool ends every round empty. Half the rounds
// start with the pool full and free it concurrently, so the stop also
// races a wait parked on a busy pool.
func TestAdmissionRacesStop(t *testing.T) {
	pool := make(chan struct{}, 1)
	for i := 0; i < 2000; i++ {
		busy := i%2 == 1
		if busy {
			pool <- struct{}{}
		}
		a := newAdmission()
		var admitted, queued bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			admitted = a.wait(context.Background(), pool)
		}()
		go func() {
			defer wg.Done()
			queued = a.stop()
		}()
		if busy {
			<-pool
		}
		wg.Wait()
		if admitted == queued {
			t.Fatalf("round %d: admitted=%v and stopped-while-queued=%v, want exactly one", i, admitted, queued)
		}
		if !a.isStopped() {
			t.Fatalf("round %d: stop returned but the job does not read as stopped", i)
		}
		if held := len(pool); admitted != (held == 1) {
			t.Fatalf("round %d: admitted=%v with %d slot(s) held", i, admitted, held)
		}
		if admitted {
			<-pool
		}
		if len(pool) != 0 {
			t.Fatalf("round %d: pool ends with %d slot(s) held", i, len(pool))
		}
		if again := a.stop(); again != queued {
			t.Fatalf("round %d: a second stop reports queued=%v, the first %v", i, again, queued)
		}
	}
}

// TestAdmissionShutdownWhileQueued: a job still queued when its daemon
// shuts down is not admitted, and a later stop still finds it queued,
// so the daemon settles it.
func TestAdmissionShutdownWhileQueued(t *testing.T) {
	pool := make(chan struct{}, 1)
	pool <- struct{}{}
	ctx, shutdown := context.WithCancel(context.Background())
	a := newAdmission()
	done := make(chan bool)
	go func() { done <- a.wait(ctx, pool) }()
	shutdown()
	if <-done {
		t.Fatal("a job queued behind a full pool was admitted at shutdown")
	}
	if !a.stop() {
		t.Error("stop after shutdown reports the queued job as admitted")
	}
	if len(pool) != 1 {
		t.Errorf("pool holds %d slots, want only the original holder's", len(pool))
	}
}
