package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	// Registers the paper's measures (gamma, percolation, …) into the
	// sweep registry — same wiring the faultexp binary gets.
	_ "faultexp/internal/experiments"
	"faultexp/internal/sweep"
)

// workerSpecJSON is the shared fabric test grid: 24 cells, fast enough
// to run many times per test binary, and identical to the serve CLI
// test fixture so goldens agree everywhere.
const workerSpecJSON = `{
  "families": [
    {"family": "mesh", "size": "4x4"},
    {"family": "torus", "size": "4x4"},
    {"family": "hypercube", "size": "4"}
  ],
  "measures": ["gamma", "percolation"],
  "model": "iid-node",
  "rates": [0, 0.25, 0.5, 0.75],
  "trials": 2,
  "seed": 42
}`

// refBytes runs the spec in-process, single-node — the byte-identity
// reference every fabric stream is compared against.
func refBytes(t testing.TB, specJSON string) []byte {
	t.Helper()
	spec := loadSpec(t, specJSON)
	var buf bytes.Buffer
	j, err := sweep.NewJob(spec, sweep.WithWriter(sweep.NewJSONL(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mgr := NewServer(context.Background(), Config{MaxActive: 2, MaxJobs: 64})
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		mgr.CancelAll()
		srv.Close()
	})
	return srv
}

func TestServerHealthz(t *testing.T) {
	srv := startWorker(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Service != "faultexp" {
		t.Errorf("service = %q", h.Service)
	}
	// The kernel stamp is the whole point of /healthz: it is what the
	// coordinator matches before mixing any worker's bytes into a job.
	if h.KernelVersion != sweep.KernelVersion {
		t.Errorf("kernel_version = %q, want %q", h.KernelVersion, sweep.KernelVersion)
	}
	if h.Version == "" {
		t.Error("version missing")
	}
	if h.MaxActive != 2 {
		t.Errorf("max_active = %d", h.MaxActive)
	}
}

// TestServerShardSkipProtocol drives the worker protocol directly:
// ?shard=i/m restricts the run to one round-robin slice and ?skip=K
// resumes it mid-shard, and the streamed bytes line up exactly with the
// corresponding lines of a single-node run.
func TestServerShardSkipProtocol(t *testing.T) {
	srv := startWorker(t)
	ref := bytes.SplitAfter(refBytes(t, workerSpecJSON), []byte("\n"))
	cl := NewClient(srv.URL)

	const m, shard, skip = 3, 1, 2
	var want bytes.Buffer
	n := 0
	for c := shard; c < 24; c += m {
		if n++; n > skip {
			want.Write(ref[c])
		}
	}

	id, err := cl.Submit(context.Background(), []byte(workerSpecJSON), sweep.Shard{Index: shard, Count: m}, skip)
	if err != nil {
		t.Fatal(err)
	}
	body, err := cl.Results(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("shard %d/%d skip %d stream:\n%swant:\n%s", shard, m, skip, got, want.Bytes())
	}
	v, err := cl.Job(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot.State != sweep.JobDone {
		t.Errorf("job state %s", v.Snapshot.State)
	}
	if err := cl.Delete(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

func TestServerBadShardSkipParams(t *testing.T) {
	srv := startWorker(t)
	for _, q := range []string{"?shard=9", "?shard=3/3", "?skip=-1", "?skip=x"} {
		resp, err := http.Post(srv.URL+"/v1/jobs"+q, "application/json", strings.NewReader(workerSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", q, resp.StatusCode)
		}
	}
}
