package fabric

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"faultexp/internal/sweep"
)

const storeSpecJSON = `{
  "families": [{"family": "torus", "size": "4x4"}],
  "measures": ["gamma"],
  "model": "iid-node",
  "rates": [0, 0.5],
  "trials": 2,
  "seed": 42
}`

func loadSpec(t testing.TB, specJSON string) *sweep.Spec {
	t.Helper()
	spec, err := sweep.Load(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestStoreConcurrentCreate: the coordinator calls Create from
// concurrent HTTP handlers, so simultaneous creates must each succeed
// under their own job id rather than race for the same next id.
func TestStoreConcurrentCreate(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, storeSpecJSON)
	const n = 16
	ids := make([]string, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			sj, err := st.Create(spec, []byte(storeSpecJSON))
			if err == nil {
				ids[i] = sj.ID
			}
			errs[i] = err
		}(i)
	}
	start.Done()
	wg.Wait()
	seen := map[string]bool{}
	for i, id := range ids {
		if errs[i] != nil {
			t.Errorf("create %d: %v", i, errs[i])
			continue
		}
		if seen[id] {
			t.Errorf("job id %s handed out twice", id)
		}
		seen[id] = true
	}
	if jobs, err := st.Jobs(); err != nil || len(jobs) != n {
		t.Fatalf("store holds %d jobs (err %v), want %d", len(jobs), err, n)
	}
}

func TestStoreCreateLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, storeSpecJSON)
	j1, err := st.Create(spec, []byte(storeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != "job-1" || j1.Shards != 1 || j1.Kernel != sweep.KernelVersion {
		t.Fatalf("first job = %q shards=%d kernel=%q", j1.ID, j1.Shards, j1.Kernel)
	}
	j2, err := st.Create(spec, []byte(storeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-2" {
		t.Fatalf("second job id %q", j2.ID)
	}
	jobs, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-1" || jobs[1].ID != "job-2" {
		t.Fatalf("Jobs() = %+v", jobs)
	}
	// The spec bytes survive verbatim — what was submitted is exactly
	// what a restarted coordinator forwards to workers.
	if !bytes.Equal(jobs[0].SpecJSON, []byte(storeSpecJSON)) {
		t.Error("spec.json bytes not verbatim after reload")
	}
	if got := len(jobs[0].Spec.Cells()); got != len(spec.Cells()) {
		t.Errorf("reloaded spec has %d cells, want %d", got, len(spec.Cells()))
	}
	if jobs[0].Shards != 1 {
		t.Errorf("reloaded job names %d shards, want 1", jobs[0].Shards)
	}
	if base := filepath.Base(jobs[0].RecordPath()); base != "shard-0-of-1.jsonl" {
		t.Errorf("RecordPath() = %q", base)
	}
}

func TestStoreIDsContinueAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, storeSpecJSON)
	if _, err := st.Create(spec, []byte(storeSpecJSON)); err != nil {
		t.Fatal(err)
	}
	// Reopen: the next id continues the on-disk sequence, so restarted
	// coordinators never hand out an id twice.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st2.Create(spec, []byte(storeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-2" {
		t.Fatalf("id after reopen = %q, want job-2", j.ID)
	}
}

func TestStoreCancelMarkerAndRemove(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, storeSpecJSON)
	j, err := st.Create(spec, []byte(storeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if j.Cancelled() {
		t.Fatal("fresh job already cancelled")
	}
	if err := j.MarkCancelled(); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Cancelled() {
		t.Fatal("cancelled marker lost across reload")
	}
	if err := st.Remove(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(j.Dir); !os.IsNotExist(err) {
		t.Fatal("Remove left the job directory behind")
	}
	if err := st.Remove("../escape"); err == nil {
		t.Fatal("Remove accepted a non-job id")
	}
}

func TestStoreIgnoresTempDirsRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-create leaves a .tmp- dir; rebuild must skip it.
	if err := os.Mkdir(filepath.Join(dir, ".tmp-job-9-x"), 0o777); err != nil {
		t.Fatal(err)
	}
	if jobs, err := st.Jobs(); err != nil || len(jobs) != 0 {
		t.Fatalf("Jobs() with only a temp dir = %v, %v", jobs, err)
	}
	// A dir that claims to be a job but cannot load is an error, not
	// silent data loss.
	if err := os.Mkdir(filepath.Join(dir, "job-1"), 0o777); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Jobs(); err == nil {
		t.Fatal("Jobs() silently skipped a corrupt job dir")
	}
}
