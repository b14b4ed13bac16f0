package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultexp/internal/sweep"
)

// startCoordinator builds a coordinator over the given fleet with test
// timings (fast health checks and retries), wrapped in an HTTP server.
func startCoordinator(t *testing.T, storeDir string, workers []string, mut func(*CoordinatorConfig)) (*Coordinator, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{
		Workers:        workers,
		Store:          st,
		HealthInterval: 25 * time.Millisecond,
		RetryDelay:     10 * time.Millisecond,
		MaxAttempts:    20,
	}
	if mut != nil {
		mut(&cfg)
	}
	co, err := NewCoordinator(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	return co, srv
}

func submitSpec(t *testing.T, base, specJSON string) CoordJobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, b)
	}
	var v CoordJobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func readResults(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getJob(t *testing.T, base, id string) CoordJobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v CoordJobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, base, id string) CoordJobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, base, id)
		if v.Snapshot.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Snapshot.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls the job until it is in state.
func waitState(t *testing.T, base, id string, state sweep.JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, base, id).Snapshot.State != state {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkDurableMatchesRef asserts the job directory's shard set, one
// record file for a job this coordinator stores, merges to exactly the
// single-node bytes — the `faultexp merge -dir` contract.
func checkDurableMatchesRef(t *testing.T, jobDir, specJSON string, ref []byte) {
	t.Helper()
	paths, err := sweep.ShardFiles(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	var readers []io.Reader
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		readers = append(readers, f)
	}
	var merged bytes.Buffer
	if _, err := sweep.MergeShards(readers, &merged, nil, loadSpec(t, specJSON)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), ref) {
		t.Error("durable shard files do not merge to the single-node bytes")
	}
}

// TestCoordinatorByteIdentityThreeWorkers is the tentpole guarantee: a
// 3-worker fleet run streams bytes identical to a single-node run, and
// the durable store holds them as one record file, shard-0-of-1.jsonl.
func TestCoordinatorByteIdentityThreeWorkers(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	fleet := []string{startWorker(t).URL, startWorker(t).URL, startWorker(t).URL}
	storeDir := t.TempDir()
	_, srv := startCoordinator(t, storeDir, fleet, nil)

	v := submitSpec(t, srv.URL, workerSpecJSON)
	if len(v.Shards) != 1 || v.Shards[0].Shard != "0/1" || v.Shards[0].Expected != 24 {
		t.Fatalf("job view shards = %+v, want the one record file 0/1 expecting 24 lines", v.Shards)
	}
	got := readResults(t, srv.URL, v.ID)
	if !bytes.Equal(got, ref) {
		t.Errorf("fleet stream differs from single-node run:\ngot  %d bytes\nwant %d bytes", len(got), len(ref))
	}
	fin := waitTerminal(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("job ended %s: %s", fin.Snapshot.State, fin.Snapshot.Err)
	}
	if fin.Snapshot.CellsDone != fin.Snapshot.CellsTotal || fin.Snapshot.CellsTotal != 24 {
		t.Errorf("cells %d/%d, want 24/24", fin.Snapshot.CellsDone, fin.Snapshot.CellsTotal)
	}
	paths, err := filepath.Glob(filepath.Join(storeDir, v.ID, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "shard-0-of-1.jsonl" {
		t.Fatalf("job directory holds %v, want the one record file shard-0-of-1.jsonl", paths)
	}
	if b, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(b, ref) {
		t.Errorf("record file differs from the single-node bytes (%d vs %d bytes, %v)", len(b), len(ref), err)
	}

	// Re-attach mid-stream: ?from=K returns exactly the suffix.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/results?from=10")
	if err != nil {
		t.Fatal(err)
	}
	suffix, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.SplitAfter(ref, []byte("\n"))
	if want := bytes.Join(lines[10:], nil); !bytes.Equal(suffix, want) {
		t.Error("?from=10 suffix differs from the reference tail")
	}
}

// flakyWorker wraps a real worker and dies after streaming exactly one
// result line: the stream ends short, subsequent requests return 500,
// and /healthz fails — the full signature of a worker crash.
type flakyWorker struct {
	inner http.Handler
	dead  atomic.Bool
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, `{"error":"worker crashed"}`, http.StatusInternalServerError)
		return
	}
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results") {
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			w.Write(body[:nl+1])
		}
		f.dead.Store(true)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// waitHealthy waits until n of the coordinator's workers have probed
// healthy with a matching kernel.
func waitHealthy(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ready := 0; ready < n; {
		ready = 0
		for _, wv := range co.workerViews() {
			if wv.Healthy && wv.KernelOK {
				ready++
			}
		}
		if ready < n && time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers probed healthy: %+v", ready, n, co.workerViews())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoordinatorReassignsDeadWorker kills a worker after one streamed
// record: the coordinator must mark it down, return the rest of its
// chunk to the free cells, which the survivor then runs from cell 1
// (resuming, not recomputing, the verified record), and still produce
// byte-identical output. The job is submitted only once both workers
// probe healthy, so acquire hands the first chunk to the first-listed
// least-loaded worker — the flaky one — instead of letting the good
// worker drain the job first.
func TestCoordinatorReassignsDeadWorker(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	flaky := &flakyWorker{inner: func() http.Handler {
		mgr := NewServer(context.Background(), Config{MaxActive: 2})
		t.Cleanup(mgr.CancelAll)
		return mgr.Handler()
	}()}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)
	good := startWorker(t)
	storeDir := t.TempDir()
	co, srv := startCoordinator(t, storeDir, []string{flakySrv.URL, good.URL}, nil)
	waitHealthy(t, co, 2)

	v := submitSpec(t, srv.URL, workerSpecJSON)
	got := readResults(t, srv.URL, v.ID)
	if !bytes.Equal(got, ref) {
		t.Errorf("stream with a mid-chunk worker death differs from single-node run (%d vs %d bytes)", len(got), len(ref))
	}
	fin := waitTerminal(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("job ended %s: %s", fin.Snapshot.State, fin.Snapshot.Err)
	}
	if !flaky.dead.Load() {
		t.Fatal("flaky worker never died — the reassignment path was not exercised")
	}
	checkDurableMatchesRef(t, filepath.Join(storeDir, v.ID), workerSpecJSON, ref)
}

// TestCoordinatorRefusesKernelSkewedWorker: a worker reporting a
// different measurement-kernel stamp is alive but must never receive a
// chunk — its bytes could legitimately differ.
func TestCoordinatorRefusesKernelSkewedWorker(t *testing.T) {
	var skewedPosts atomic.Int32
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, Health{Service: "faultexp", Version: "devel", KernelVersion: "fx-kernels-v0", MaxActive: 2})
			return
		}
		if r.Method == http.MethodPost {
			skewedPosts.Add(1)
		}
		http.Error(w, `{"error":"should not be called"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(skewed.Close)
	good := startWorker(t)
	co, srv := startCoordinator(t, t.TempDir(), []string{skewed.URL, good.URL}, nil)

	v := submitSpec(t, srv.URL, workerSpecJSON)
	fin := waitTerminal(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("job ended %s: %s", fin.Snapshot.State, fin.Snapshot.Err)
	}
	if n := skewedPosts.Load(); n != 0 {
		t.Errorf("kernel-skewed worker received %d job submissions", n)
	}
	for _, wv := range co.workerViews() {
		if wv.URL == strings.TrimRight(skewed.URL, "/") {
			if wv.KernelOK {
				t.Error("skewed worker marked kernel_ok")
			}
			if !strings.Contains(wv.Err, "kernel skew") {
				t.Errorf("skewed worker err = %q", wv.Err)
			}
		}
	}
}

// TestCoordinatorRestartResumesFromPrefix manufactures the durable
// state a SIGKILLed coordinator leaves behind — a record file with 5
// complete records and a torn final line — and checks a fresh
// coordinator rebuilds the job, truncates the torn tail, dispatches only
// the cells past the exact verified prefix, and ends byte-identical
// with no duplicated or missing cells.
func TestCoordinatorRestartResumesFromPrefix(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	lines := bytes.SplitAfter(ref, []byte("\n")) // 24 lines + trailing ""
	storeDir := t.TempDir()
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := st.Create(loadSpec(t, workerSpecJSON), []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	partial := append(bytes.Join(lines[:5], nil), `{"family":"torn`...)
	if err := os.WriteFile(sj.RecordPath(), partial, 0o666); err != nil {
		t.Fatal(err)
	}

	cw, url := newChunkWorker(t, -1, false)
	_, srv := startCoordinator(t, storeDir, []string{url}, nil)
	fin := waitTerminal(t, srv.URL, "job-1")
	if fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("rebuilt job ended %s: %s", fin.Snapshot.State, fin.Snapshot.Err)
	}
	got := readResults(t, srv.URL, "job-1")
	if !bytes.Equal(got, ref) {
		t.Error("resumed run differs from single-node bytes")
	}
	// Any duplicated, missing, or reordered cell fails here.
	if b, err := os.ReadFile(sj.RecordPath()); err != nil || !bytes.Equal(b, ref) {
		t.Errorf("record file after the resume differs from the single-node bytes (%d vs %d bytes, %v)", len(b), len(ref), err)
	}
	if posts := cw.received(); len(posts) == 0 || posts[0][0] != 5 {
		t.Errorf("worker received (skip, limit) %v, want the first chunk to start at cell 5", posts)
	}
}

// rewriteMeta replaces from with to in the job's meta.json.
func rewriteMeta(t *testing.T, sj *StoredJob, from, to string) {
	t.Helper()
	path := filepath.Join(sj.Dir, "meta.json")
	mb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mb, []byte(from)) {
		t.Fatalf("%s holds no %s", path, from)
	}
	if err := os.WriteFile(path, bytes.ReplaceAll(mb, []byte(from), []byte(to)), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRebuildTerminalStates: a complete job comes back done
// (streamable with no fleet at all), a cancelled one stays cancelled, a
// job stored under a different kernel stamp fails instead of splicing
// possibly-different bytes, and so does a job stored as round-robin
// shard files, whose files stay as they were for `faultexp merge -dir`.
func TestCoordinatorRebuildTerminalStates(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	lines := bytes.SplitAfter(ref, []byte("\n"))
	spec := loadSpec(t, workerSpecJSON)
	storeDir := t.TempDir()
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}

	// job-1: complete.
	sj1, err := st.Create(spec, []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sj1.RecordPath(), ref, 0o666); err != nil {
		t.Fatal(err)
	}

	// job-2: cancelled mid-run.
	sj2, err := st.Create(spec, []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	sj2.MarkCancelled()

	// job-3: stored under an older kernel stamp.
	sj3, err := st.Create(spec, []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	rewriteMeta(t, sj3, sweep.KernelVersion, "fx-kernels-v0")

	// job-4: complete, stored as 2 round-robin shard files.
	sj4, err := st.Create(spec, []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	rewriteMeta(t, sj4, `"shards": 1`, `"shards": 2`)
	shards := make([][]byte, 2)
	for c, line := range lines {
		shards[c%2] = append(shards[c%2], line...)
	}
	for i, b := range shards {
		if err := os.WriteFile(filepath.Join(sj4.Dir, sweep.ShardFileName(sweep.Shard{Index: i, Count: 2})), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	// No workers: nothing here may need the fleet.
	_, srv := startCoordinator(t, storeDir, nil, nil)
	if v := waitTerminal(t, srv.URL, "job-1"); v.Snapshot.State != sweep.JobDone {
		t.Errorf("complete job rebuilt as %s", v.Snapshot.State)
	}
	if got := readResults(t, srv.URL, "job-1"); !bytes.Equal(got, ref) {
		t.Error("rebuilt complete job streams different bytes")
	}
	if v := waitTerminal(t, srv.URL, "job-2"); v.Snapshot.State != sweep.JobCancelled {
		t.Errorf("cancelled job rebuilt as %s", v.Snapshot.State)
	}
	v3 := waitTerminal(t, srv.URL, "job-3")
	if v3.Snapshot.State != sweep.JobFailed || !strings.Contains(v3.Snapshot.Err, "kernel stamp") {
		t.Errorf("kernel-skewed job rebuilt as %s: %s", v3.Snapshot.State, v3.Snapshot.Err)
	}
	v4 := waitTerminal(t, srv.URL, "job-4")
	if v4.Snapshot.State != sweep.JobFailed || !strings.Contains(v4.Snapshot.Err, "merge -dir") {
		t.Errorf("2-shard job rebuilt as %s: %s", v4.Snapshot.State, v4.Snapshot.Err)
	}
	for i, want := range shards {
		path := filepath.Join(sj4.Dir, sweep.ShardFileName(sweep.Shard{Index: i, Count: 2}))
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want) {
			t.Errorf("%s changed on rebuild (%d bytes, want %d, %v)", path, len(b), len(want), err)
		}
	}
	if _, err := os.Stat(sj4.RecordPath()); !os.IsNotExist(err) {
		t.Errorf("the 2-shard job gained a record file on rebuild (%v)", err)
	}
	checkDurableMatchesRef(t, sj4.Dir, workerSpecJSON, ref)
}

// TestCoordinatorRebuildRefusesOtherKernelRecords: a stored record file
// whose records were computed by another kernel generation, here a
// complete job from before an upgrade, fails its job on restart instead
// of serving or extending the older records.
func TestCoordinatorRebuildRefusesOtherKernelRecords(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	old := bytes.ReplaceAll(ref, []byte(`"kernel":"`+sweep.KernelVersion+`"`), []byte(`"kernel":"fx-kernels-v0"`))
	if bytes.Equal(old, ref) {
		t.Fatal("reference records carry no kernel stamp")
	}
	storeDir := t.TempDir()
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := st.Create(loadSpec(t, workerSpecJSON), []byte(workerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sj.RecordPath(), old, 0o666); err != nil {
		t.Fatal(err)
	}
	_, srv := startCoordinator(t, storeDir, nil, nil)
	v := waitTerminal(t, srv.URL, sj.ID)
	if v.Snapshot.State != sweep.JobFailed || !strings.Contains(v.Snapshot.Err, `kernel stamp "fx-kernels-v0"`) {
		t.Errorf("job with another generation's records rebuilt as %s: %s", v.Snapshot.State, v.Snapshot.Err)
	}
}

// TestCoordinatorMaxResultBytes: a job whose next record would pass
// MaxResultBytes fails naming -max-result-bytes, and its record file,
// like its results stream, is exactly the single-node bytes of the
// records under the cap.
func TestCoordinatorMaxResultBytes(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	lines := bytes.SplitAfter(ref, []byte("\n"))
	prefix := bytes.Join(lines[:5], nil)
	storeDir := t.TempDir()
	_, srv := startCoordinator(t, storeDir, []string{startWorker(t).URL}, func(cfg *CoordinatorConfig) {
		cfg.MaxResultBytes = int64(len(prefix) + len(lines[5]) - 1)
	})
	v := submitSpec(t, srv.URL, workerSpecJSON)
	got := readResults(t, srv.URL, v.ID)
	fin := getJob(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobFailed || !strings.Contains(fin.Snapshot.Err, "-max-result-bytes") {
		t.Fatalf("capped job ended %s: %q, want failed naming -max-result-bytes", fin.Snapshot.State, fin.Snapshot.Err)
	}
	if !bytes.Equal(got, prefix) {
		t.Errorf("capped job streamed %d bytes, want its first 5 records (%d bytes)", len(got), len(prefix))
	}
	if b, err := os.ReadFile(filepath.Join(storeDir, v.ID, "shard-0-of-1.jsonl")); err != nil || !bytes.Equal(b, prefix) {
		t.Errorf("capped job's record file holds %d bytes (%v), want its first 5 records (%d bytes)", len(b), err, len(prefix))
	}
}

// TestCoordinatorCancelIsDurable: DELETE on an active job writes the
// store marker, so a restarted coordinator does not resurrect it; a
// second DELETE removes the job and its directory.
func TestCoordinatorCancelIsDurable(t *testing.T) {
	storeDir := t.TempDir()
	// Zero workers: the job queues forever, deterministically active.
	_, srv := startCoordinator(t, storeDir, nil, nil)
	v := submitSpec(t, srv.URL, workerSpecJSON)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobCancelled {
		t.Fatalf("after DELETE: %s", fin.Snapshot.State)
	}
	if _, err := os.Stat(filepath.Join(storeDir, v.ID, "cancelled")); err != nil {
		t.Fatal("DELETE left no durable cancelled marker")
	}

	// Restart: still cancelled, not resumed.
	_, srv2 := startCoordinator(t, storeDir, nil, nil)
	if v2 := waitTerminal(t, srv2.URL, v.ID); v2.Snapshot.State != sweep.JobCancelled {
		t.Fatalf("restart resurrected a cancelled job as %s", v2.Snapshot.State)
	}
	// DELETE a terminal job = remove it and its directory.
	req, _ = http.NewRequest(http.MethodDelete, srv2.URL+"/v1/jobs/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rv CoordJobView
	json.NewDecoder(resp.Body).Decode(&rv)
	resp.Body.Close()
	if !rv.Removed {
		t.Error("terminal DELETE did not report removal")
	}
	if _, err := os.Stat(filepath.Join(storeDir, v.ID)); !os.IsNotExist(err) {
		t.Error("terminal DELETE left the job directory in the store")
	}
}

// TestCoordinatorCancelReportsMarkerFailure: when the durable cancel
// marker cannot be written (here a directory already sits at its path),
// DELETE answers 500 naming the failure, since a restart would resume
// the job; the in-memory cancel still stops it.
func TestCoordinatorCancelReportsMarkerFailure(t *testing.T) {
	storeDir := t.TempDir()
	// Zero workers: the job queues forever, deterministically active.
	_, srv := startCoordinator(t, storeDir, nil, nil)
	v := submitSpec(t, srv.URL, workerSpecJSON)
	if err := os.Mkdir(filepath.Join(storeDir, v.ID, "cancelled"), 0o755); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), filepath.Join(v.ID, "cancelled")) {
		t.Fatalf("DELETE with an unwritable marker = %d %s, want 500 naming the marker", resp.StatusCode, b)
	}
	if fin := waitTerminal(t, srv.URL, v.ID); fin.Snapshot.State != sweep.JobCancelled {
		t.Fatalf("after a failed durable cancel: %s, want cancelled in memory", fin.Snapshot.State)
	}
}

// TestCoordinatorCancelQueuedJobAcknowledgedImmediately: with one
// dispatch slot and no workers, job A holds the slot (running, waiting
// for workers) and job B queues as pending. DELETE on B must answer
// with B already cancelled, as serve does, and B's results stream must
// close empty.
func TestCoordinatorCancelQueuedJobAcknowledgedImmediately(t *testing.T) {
	_, srv := startCoordinator(t, t.TempDir(), nil, func(cfg *CoordinatorConfig) { cfg.MaxActive = 1 })
	a := submitSpec(t, srv.URL, workerSpecJSON)
	waitState(t, srv.URL, a.ID, sweep.JobRunning)
	b := submitSpec(t, srv.URL, workerSpecJSON)
	if s := getJob(t, srv.URL, b.ID).Snapshot.State; s != sweep.JobPending {
		t.Fatalf("second job state = %q, want pending behind the 1-slot pool", s)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v CoordJobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding DELETE response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || v.Snapshot.State != sweep.JobCancelled {
		t.Fatalf("DELETE on a queued job = %d with state %q, want 200 cancelled", resp.StatusCode, v.Snapshot.State)
	}
	if got := readResults(t, srv.URL, b.ID); len(got) != 0 {
		t.Errorf("cancelled queued job streamed %d bytes", len(got))
	}
	if s := getJob(t, srv.URL, a.ID).Snapshot.State; s != sweep.JobRunning {
		t.Errorf("first job state after the queued DELETE = %q, want still running", s)
	}
}

// TestCoordinatorCancelQueuedJobAfterShutdown: a job still queued when
// the coordinator shuts down never turns terminal in memory (it resumes
// on the next start), so a DELETE arriving then must answer at once,
// with the durable marker written, rather than wait for a terminal
// state.
func TestCoordinatorCancelQueuedJobAfterShutdown(t *testing.T) {
	storeDir := t.TempDir()
	st, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	co, err := NewCoordinator(ctx, CoordinatorConfig{Store: st, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer func() {
		if !t.Failed() { // Close would wait forever on a stuck DELETE
			srv.Close()
		}
	}()
	a := submitSpec(t, srv.URL, workerSpecJSON)
	waitState(t, srv.URL, a.ID, sweep.JobRunning)
	b := submitSpec(t, srv.URL, workerSpecJSON)
	shutdown()
	readResults(t, srv.URL, b.ID) // ends once shutdown has settled b's run

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := NewClient(srv.URL).Delete(dctx, b.ID); err != nil {
		t.Fatalf("DELETE on a job queued at shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, b.ID, "cancelled")); err != nil {
		t.Error("DELETE after shutdown left no durable cancelled marker")
	}
}

func TestCoordinatorRejectsCoupledSpec(t *testing.T) {
	_, srv := startCoordinator(t, t.TempDir(), nil, nil)
	coupled := strings.Replace(workerSpecJSON, `"trials": 2,`, `"trials": 2, "rate_mode": "coupled",`, 1)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(coupled))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("coupled spec accepted: %d %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "coupled") {
		t.Errorf("error does not explain the coupled refusal: %s", b)
	}
}

// TestCoordinatorHealthShape pins the /healthz body a fleet operator
// scrapes: service name, kernel stamp, and one entry per worker.
func TestCoordinatorHealthShape(t *testing.T) {
	good := startWorker(t)
	_, srv := startCoordinator(t, t.TempDir(), []string{good.URL}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h CoordHealth
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Service != "faultexp-coordinator" || h.KernelVersion != sweep.KernelVersion || len(h.Workers) != 1 {
			t.Fatalf("health = %+v", h)
		}
		if h.Workers[0].Healthy && h.Workers[0].KernelOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never probed healthy: %+v", h.Workers[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordHealthJSONBytes pins the coordinator's /healthz bytes for a
// fixed value: CoordHealth embeds a worker's Health, and the embedding
// keeps the names and order of the fields the body had as one flat
// struct.
func TestCoordHealthJSONBytes(t *testing.T) {
	h := CoordHealth{
		Health: Health{Service: "faultexp-coordinator", Version: "devel", KernelVersion: "fx-kernels-v8",
			MaxActive: 2, ActiveJobs: 1, HeldJobs: 3},
		Workers: []WorkerView{
			{URL: "http://127.0.0.1:1", Healthy: true, KernelVersion: "fx-kernels-v8", KernelOK: true, Version: "devel", Inflight: 1},
			{URL: "http://127.0.0.1:2", Err: "not probed yet"},
		},
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, h)
	const want = `{
  "service": "faultexp-coordinator",
  "version": "devel",
  "kernel_version": "fx-kernels-v8",
  "max_active": 2,
  "active_jobs": 1,
  "held_jobs": 3,
  "workers": [
    {
      "url": "http://127.0.0.1:1",
      "healthy": true,
      "kernel_version": "fx-kernels-v8",
      "kernel_ok": true,
      "version": "devel",
      "inflight": 1
    },
    {
      "url": "http://127.0.0.1:2",
      "healthy": false,
      "kernel_ok": false,
      "inflight": 0,
      "err": "not probed yet"
    }
  ]
}
`
	if got := rec.Body.String(); got != want {
		t.Errorf("/healthz body:\n%s\nwant:\n%s", got, want)
	}
}

// TestCoordinatorTwoChunksPerWorker: one worker with two in-flight
// slots runs two chunks at once, so records of the later chunk can
// arrive before the earlier chunk's are stored, and the job stays
// byte-identical.
func TestCoordinatorTwoChunksPerWorker(t *testing.T) {
	runFleetJob(t, []string{startWorker(t).URL}, func(cfg *CoordinatorConfig) { cfg.MaxInflight = 2 })
}

// TestPlaceKeepsCellOrder places 10 records in scrambled order: each is
// stored once every cell before it is, so the record file and the log
// hold them in cell order, and the view's cells_done is the stored
// prefix after every placement.
func TestPlaceKeepsCellOrder(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cj := &coordJob{cells: make([]sweep.Cell, 10), log: newResultLog(0), file: f, held: map[int][]byte{}}
	var want bytes.Buffer
	for c := range cj.cells {
		fmt.Fprintf(&want, "cell %d\n", c)
	}
	order := []int{3, 1, 0, 2, 9, 5, 4, 8, 6, 7}
	done := []int{0, 0, 2, 4, 4, 4, 6, 6, 7, 10}
	for k, c := range order {
		if err := cj.place(c, []byte(fmt.Sprintf("cell %d\n", c))); err != nil {
			t.Fatal(err)
		}
		if got := cj.view(false).(CoordJobView).Snapshot.CellsDone; got != done[k] {
			t.Errorf("after placing cells %v: cells_done = %d, want %d", order[:k+1], got, done[k])
		}
	}
	b, err := os.ReadFile(f.Name())
	if err != nil || !bytes.Equal(b, want.Bytes()) {
		t.Errorf("record file holds %q (%v), want the cells in order", b, err)
	}
	var logged []byte
	for i := range cj.cells {
		line, _ := cj.line(context.Background(), i)
		logged = append(logged, line...)
	}
	if !bytes.Equal(logged, want.Bytes()) {
		t.Errorf("log holds %q, want the cells in order", logged)
	}
}

// queryInt reads query parameter key as an int, 0 when absent.
func queryInt(r *http.Request, key string) int {
	n, _ := strconv.Atoi(r.URL.Query().Get(key))
	return n
}

// chunkWorker wraps a real worker and records the (skip, limit) of
// every job it is sent. When cutAt ≥ 0 it ends the first result stream
// after cutAt records, cleanly, and then behaves normally; stripLimit
// drops ?limit= from every submit, as a worker that predates it would.
type chunkWorker struct {
	inner      http.Handler
	cutAt      int
	stripLimit bool

	mu    sync.Mutex
	posts [][2]int
	cut   bool
}

func newChunkWorker(t *testing.T, cutAt int, stripLimit bool) (*chunkWorker, string) {
	t.Helper()
	mgr := NewServer(context.Background(), Config{MaxActive: 2})
	t.Cleanup(mgr.CancelAll)
	cw := &chunkWorker{inner: mgr.Handler(), cutAt: cutAt, stripLimit: stripLimit}
	srv := httptest.NewServer(cw)
	t.Cleanup(srv.Close)
	return cw, srv.URL
}

func (cw *chunkWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost:
		cw.mu.Lock()
		cw.posts = append(cw.posts, [2]int{queryInt(r, "skip"), queryInt(r, "limit")})
		cw.mu.Unlock()
		if cw.stripLimit {
			q := r.URL.Query()
			q.Del("limit")
			r.URL.RawQuery = q.Encode()
		}
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results") && cw.cutAt >= 0:
		cw.mu.Lock()
		first := !cw.cut
		cw.cut = true
		cw.mu.Unlock()
		if first {
			rec := httptest.NewRecorder()
			cw.inner.ServeHTTP(rec, r)
			lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
			w.Write(bytes.Join(lines[:cw.cutAt], nil))
			return
		}
	}
	cw.inner.ServeHTTP(w, r)
}

func (cw *chunkWorker) received() [][2]int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return slices.Clone(cw.posts)
}

// runFleetJob submits workerSpecJSON, reads the results stream to its
// end (which comes only once the job is terminal) and checks the job
// ended done, byte-identical to a single-node run, with a durable record
// file that merges to the same bytes.
func runFleetJob(t *testing.T, fleet []string, mut func(*CoordinatorConfig)) {
	t.Helper()
	ref := refBytes(t, workerSpecJSON)
	storeDir := t.TempDir()
	_, srv := startCoordinator(t, storeDir, fleet, mut)
	v := submitSpec(t, srv.URL, workerSpecJSON)
	if got := readResults(t, srv.URL, v.ID); !bytes.Equal(got, ref) {
		t.Errorf("fleet stream differs from single-node run (%d vs %d bytes)", len(got), len(ref))
	}
	if fin := getJob(t, srv.URL, v.ID); fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("job ended %s: %s", fin.Snapshot.State, fin.Snapshot.Err)
	}
	checkDurableMatchesRef(t, filepath.Join(storeDir, v.ID), workerSpecJSON, ref)
}

// TestChunkPlanPinned pins the factoring plan: a fresh 24-cell job on
// two single-slot workers is sent chunks of ⌈R / 4⌉ of its R free
// cells, lowest cells first.
func TestChunkPlanPinned(t *testing.T) {
	a, aURL := newChunkWorker(t, -1, false)
	b, bURL := newChunkWorker(t, -1, false)
	runFleetJob(t, []string{aURL, bURL}, nil)
	got := append(a.received(), b.received()...)
	slices.SortFunc(got, func(x, y [2]int) int { return x[0] - y[0] })
	want := [][2]int{{0, 6}, {6, 5}, {11, 4}, {15, 3}, {18, 2}, {20, 1}, {21, 1}, {22, 1}, {23, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("workers received (skip, limit) %v, want %v", got, want)
	}
}

// TestChunkCutPoints ends the first chunk's stream after K records for
// every K the chunk allows. The job must still end byte-identical, and
// the attempts after the first must cover exactly the cells from K on,
// each once: a verified record is never computed again.
func TestChunkCutPoints(t *testing.T) {
	const first = 12 // ⌈24 / 2⌉ on one single-slot worker
	for k := 0; k < first; k++ {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			cw, url := newChunkWorker(t, k, false)
			runFleetJob(t, []string{url}, nil)
			posts := cw.received()
			if len(posts) < 2 || posts[0] != [2]int{0, first} {
				t.Fatalf("worker received %v, want (0, %d) and then the rest", posts, first)
			}
			rest := posts[1:]
			slices.SortFunc(rest, func(x, y [2]int) int { return x[0] - y[0] })
			next := k
			for _, p := range rest {
				if p[0] != next || p[1] < 1 {
					t.Fatalf("after a cut at %d the worker received %v, want chunks tiling cells %d..23", k, rest, k)
				}
				next += p[1]
			}
			if next != 24 {
				t.Fatalf("after a cut at %d the worker received %v, which stop at cell %d", k, rest, next)
			}
		})
	}
}

// TestChunkWorkerIgnoresLimit runs the fleet on workers that drop
// ?limit=, as an older worker binary does: each attempt stops reading
// at its chunk's last record, and the job is still byte-identical.
func TestChunkWorkerIgnoresLimit(t *testing.T) {
	_, aURL := newChunkWorker(t, -1, true)
	_, bURL := newChunkWorker(t, -1, true)
	runFleetJob(t, []string{aURL, bURL}, nil)
}

// seedBreaker wraps a worker and rewrites the seed of the first record
// it streams, so that record fails CheckRecord.
type seedBreaker struct {
	inner http.Handler
	posts atomic.Int32
	done  atomic.Bool
}

func (sb *seedBreaker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		sb.posts.Add(1)
	}
	if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/results") || sb.done.Swap(true) {
		sb.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	sb.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	nl := bytes.IndexByte(body, '\n')
	var res sweep.Result
	if err := json.Unmarshal(body[:nl], &res); err != nil {
		panic(err)
	}
	res.Seed++
	line, _ := json.Marshal(&res)
	w.Write(append(append(line, '\n'), body[nl+1:]...))
}

// TestCoordinatorPermanentFailureStopsDispatch: a record that fails
// verification fails the job at once, naming the record, and nothing
// else is dispatched — the job's other cells never run.
func TestCoordinatorPermanentFailureStopsDispatch(t *testing.T) {
	mgr := NewServer(context.Background(), Config{MaxActive: 2})
	t.Cleanup(mgr.CancelAll)
	sb := &seedBreaker{inner: mgr.Handler()}
	worker := httptest.NewServer(sb)
	t.Cleanup(worker.Close)
	_, srv := startCoordinator(t, t.TempDir(), []string{worker.URL}, func(cfg *CoordinatorConfig) {
		cfg.MaxInflight = 1
	})
	v := submitSpec(t, srv.URL, workerSpecJSON)
	readResults(t, srv.URL, v.ID)
	fin := getJob(t, srv.URL, v.ID)
	if fin.Snapshot.State != sweep.JobFailed || !strings.Contains(fin.Snapshot.Err, "record 0 ") || !strings.Contains(fin.Snapshot.Err, "seed") {
		t.Fatalf("job ended %s: %q, want failed naming record 0's seed", fin.Snapshot.State, fin.Snapshot.Err)
	}
	if n := sb.posts.Load(); n != 1 {
		t.Errorf("worker received %d job submissions, want 1", n)
	}
}

// TestDispatchPacesRefusingWorker: a worker that refuses submits with a
// 5xx is sent its next chunk only after RetryDelay, as a shard was
// retried before, so a short refusal spell does not spend the job's
// attempt budget in a burst.
func TestDispatchPacesRefusingWorker(t *testing.T) {
	const delay = 50 * time.Millisecond
	mgr := NewServer(context.Background(), Config{MaxActive: 2})
	t.Cleanup(mgr.CancelAll)
	var (
		mu    sync.Mutex
		posts []time.Time
	)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			posts = append(posts, time.Now())
			n := len(posts)
			mu.Unlock()
			if n <= 2 {
				httpError(w, http.StatusServiceUnavailable, "job store full")
				return
			}
		}
		mgr.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	runFleetJob(t, []string{worker.URL}, func(cfg *CoordinatorConfig) {
		cfg.RetryDelay = delay
		cfg.MaxAttempts = 3
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i <= 2; i++ {
		if gap := posts[i].Sub(posts[i-1]); gap < delay {
			t.Errorf("submit %d came %v after a refused one, want at least RetryDelay (%v)", i+1, gap, delay)
		}
	}
}

// TestChunkTornStreamReturnsCell: a worker stream that ends inside a
// line, here the first chunk's stream one byte short of its final
// newline, is torn, not a record. The torn line's cell goes back to the
// pool with the chunk's other unreceived cells, so the next submit
// starts at that cell, and the job still ends byte-identical.
func TestChunkTornStreamReturnsCell(t *testing.T) {
	const first = 12 // ⌈24 / 2⌉ on one single-slot worker
	mgr := NewServer(context.Background(), Config{MaxActive: 2})
	t.Cleanup(mgr.CancelAll)
	var (
		mu    sync.Mutex
		skips []int
		torn  bool
	)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tear := r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results") && !torn
		torn = torn || tear
		if r.Method == http.MethodPost {
			skips = append(skips, queryInt(r, "skip"))
		}
		mu.Unlock()
		if !tear {
			mgr.Handler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		mgr.Handler().ServeHTTP(rec, r)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()-1])
	}))
	t.Cleanup(worker.Close)
	runFleetJob(t, []string{worker.URL}, nil)
	mu.Lock()
	defer mu.Unlock()
	if len(skips) < 2 || skips[0] != 0 || skips[1] != first-1 {
		t.Errorf("worker was sent skips %v, want 0 and then %d, the torn line's cell", skips, first-1)
	}
}

// TestDispatchAvoidsRefusingWorker: a worker that answers /healthz but
// refuses every submit with a 503, listed before a good worker, loses
// acquire's ties once it has failed, so the job's returned cells go to
// the good worker and the job ends done instead of stalling after
// MaxAttempts refusals while the good worker sits idle.
func TestDispatchAvoidsRefusingWorker(t *testing.T) {
	ref := refBytes(t, workerSpecJSON)
	mgr := NewServer(context.Background(), Config{MaxActive: 2})
	t.Cleanup(mgr.CancelAll)
	var refused atomic.Int32
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			refused.Add(1)
			httpError(w, http.StatusServiceUnavailable, "job store full")
			return
		}
		mgr.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(refusing.Close)
	co, srv := startCoordinator(t, t.TempDir(), []string{refusing.URL, startWorker(t).URL}, func(cfg *CoordinatorConfig) {
		cfg.MaxAttempts = 5
		cfg.RetryDelay = 20 * time.Millisecond
	})
	waitHealthy(t, co, 2)
	v := submitSpec(t, srv.URL, workerSpecJSON)
	got := readResults(t, srv.URL, v.ID)
	if fin := getJob(t, srv.URL, v.ID); fin.Snapshot.State != sweep.JobDone {
		t.Fatalf("job ended %s after %d refused submits: %s", fin.Snapshot.State, refused.Load(), fin.Snapshot.Err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("fleet stream differs from single-node run (%d vs %d bytes)", len(got), len(ref))
	}
	if refused.Load() == 0 {
		t.Error("the refusing worker was never sent a chunk")
	}
}
