package main

// End-to-end CLI test of the distributed fabric: two `faultexp worker`
// daemons and a `faultexp coordinator` run in-process, a job submitted
// over HTTP streams back the checked-in unsharded golden bytes, and a
// coordinator restart over the same store serves the finished job from
// its durable files alone — no fleet required.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faultexp/internal/sweep"
)

// freeAddr reserves an ephemeral port and releases it for a daemon to
// bind. The gap is a standard, tiny race; tests retry nothing because
// the OS does not reissue a just-closed port under normal churn.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthz(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered /healthz: %v", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestWorkerCoordinatorCLI(t *testing.T) {
	golden := readFile(t, filepath.Join("testdata", "sweep_golden.jsonl"))
	storeDir := t.TempDir()

	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	var workerAddrs []string
	for i := 0; i < 2; i++ {
		addr := freeAddr(t)
		workerAddrs = append(workerAddrs, addr)
		go cmdWorker(fleetCtx, []string{"-addr", addr, "-quiet"})
	}

	coordAddr := freeAddr(t)
	coordCtx, stopCoord := context.WithCancel(context.Background())
	coordDone := make(chan error, 1)
	coordArgs := []string{
		"-addr", coordAddr,
		"-workers", strings.Join(workerAddrs, ","),
		"-store", storeDir,
		"-health-interval", "100ms",
		"-retry-delay", "50ms",
		"-quiet",
	}
	go func() { coordDone <- cmdCoordinator(coordCtx, coordArgs) }()
	base := "http://" + coordAddr
	waitHealthz(t, base)

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(serveSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(base + "/v1/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, golden) {
		t.Errorf("fleet results differ from the unsharded golden (%d vs %d bytes)", len(got), len(golden))
	}

	// The durable store is a merge -dir input from the moment the job
	// finishes: the CLI merge of the job directory is the golden too.
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	spec := filepath.Join(t.TempDir(), "grid.json")
	writeTestFile(t, spec, serveSpecJSON)
	if err := cmdMerge(context.Background(), []string{"-quiet", "-spec", spec,
		"-dir", filepath.Join(storeDir, v.ID), "-jsonl", merged}); err != nil {
		t.Fatalf("cmdMerge -dir on the job store: %v", err)
	}
	if got := readFile(t, merged); !bytes.Equal(got, golden) {
		t.Errorf("merge -dir of the job store differs from golden")
	}

	// Restart the coordinator over the same store with NO workers: the
	// finished job must come back done and stream the same bytes from
	// its durable shard files alone.
	stopCoord()
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator never shut down")
	}
	coordAddr2 := freeAddr(t)
	coordCtx2, stopCoord2 := context.WithCancel(context.Background())
	defer stopCoord2()
	go cmdCoordinator(coordCtx2, []string{
		"-addr", coordAddr2, "-store", storeDir, "-quiet"})
	base2 := "http://" + coordAddr2
	waitHealthz(t, base2)

	resp, err = http.Get(base2 + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Snapshot sweep.Snapshot `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Snapshot.State != sweep.JobDone {
		t.Fatalf("restarted coordinator shows job %s", view.Snapshot.State)
	}
	resp, err = http.Get(base2 + "/v1/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got2, golden) {
		t.Error("restarted coordinator streams different bytes")
	}
}

func TestCoordinatorRequiresStore(t *testing.T) {
	err := cmdCoordinator(context.Background(), []string{"-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("coordinator without -store: %v", err)
	}
}

// TestCoordinatorRejectsOutOfRangeFlags: each bound out of range is
// refused before the coordinator starts, naming the flag. The context
// is already cancelled, so a coordinator that did start would return
// nil at once instead of serving.
func TestCoordinatorRejectsOutOfRangeFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct{ flag, value string }{
		{"-max-active", "0"},
		{"-max-inflight", "0"},
		{"-max-result-bytes", "-1"},
	} {
		err := cmdCoordinator(ctx, []string{"-addr", "127.0.0.1:0", "-store", t.TempDir(), "-quiet", c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("coordinator %s %s: %v, want an error naming %s", c.flag, c.value, err, c.flag)
		}
	}
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
