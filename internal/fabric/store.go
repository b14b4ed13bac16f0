package fabric

// The durable job store: one directory per job, append-only files
// only, so a SIGKILLed coordinator loses nothing. Layout under the
// store root:
//
//	job-<n>/meta.json           id, shard count (1), kernel stamp, created
//	job-<n>/spec.json           the submitted grid spec, byte-verbatim
//	job-<n>/shard-0-of-1.jsonl  the job's records in cell order (appended
//	                            a whole line at a time)
//	job-<n>/cancelled           marker: don't resume this job
//
// Creation is atomic (write into a ".tmp-" dir, then rename), so a
// coordinator killed mid-create leaves at worst an ignored temp dir,
// never a half-job. Nothing is fsynced: the store survives the death of
// the process, not an OS crash or power loss. On startup the
// coordinator rescans the root: each job's record file is verified
// record-by-record with sweep.RecordReader — and a torn final line, the
// signature of a mid-write kill, truncated — and execution resumes
// exactly where the prefix ends. The record file holds the bytes a
// single-node sweep writes, under the one-shard sweep.ShardFileName
// name, so a job directory is directly consumable by `faultexp merge
// -dir`.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"faultexp/internal/sweep"
)

// Store is the on-disk root holding every job's directory.
type Store struct {
	dir string
	// createMu serializes Create from the id scan through the rename, so
	// concurrent submits never race for the same next id.
	createMu sync.Mutex
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// storedMeta is the meta.json shape.
type storedMeta struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
	// KernelVersion stamps which measurement kernels produced the
	// job's bytes. A store resumed under a different stamp refuses to
	// splice: the prefix and the remainder could legitimately differ.
	KernelVersion string    `json:"kernel_version"`
	Created       time.Time `json:"created"`
}

// StoredJob is one job's on-disk state.
type StoredJob struct {
	ID  string
	Dir string
	// Shards is the shard count meta.json names: 1 for every job Create
	// makes; a job stored as round-robin shard files names more.
	Shards  int
	Kernel  string
	Created time.Time
	// Spec is the parsed grid; SpecJSON the verbatim submitted bytes
	// (what gets forwarded to workers).
	Spec     *sweep.Spec
	SpecJSON []byte
}

// RecordPath returns the path of the job's record file.
func (j *StoredJob) RecordPath() string {
	return filepath.Join(j.Dir, sweep.ShardFileName(sweep.Shard{}))
}

func (j *StoredJob) cancelPath() string { return filepath.Join(j.Dir, "cancelled") }

// MarkCancelled durably records that the job must not be resumed.
func (j *StoredJob) MarkCancelled() error {
	return os.WriteFile(j.cancelPath(), nil, 0o666)
}

// Cancelled reports whether the job carries the cancelled marker.
func (j *StoredJob) Cancelled() bool {
	_, err := os.Stat(j.cancelPath())
	return err == nil
}

// jobSeq extracts n from "job-<n>" (ok=false otherwise).
func jobSeq(name string) (int, bool) {
	rest, found := strings.CutPrefix(name, "job-")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || rest != strconv.Itoa(n) || n < 1 {
		return 0, false
	}
	return n, true
}

// Create durably registers a new job before any cell runs: spec and
// meta are written into a temp dir and renamed into place, so the job
// either exists completely or not at all. IDs continue the store's
// sequence ("job-<n>"), surviving restarts. Safe for concurrent use.
func (st *Store) Create(spec *sweep.Spec, specJSON []byte) (*StoredJob, error) {
	st.createMu.Lock()
	defer st.createMu.Unlock()
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	seq := 0
	for _, e := range entries {
		if n, ok := jobSeq(e.Name()); ok && n > seq {
			seq = n
		}
	}
	seq++
	id := fmt.Sprintf("job-%d", seq)
	tmp, err := os.MkdirTemp(st.dir, ".tmp-"+id+"-")
	if err != nil {
		return nil, err
	}
	meta := storedMeta{ID: id, Shards: 1, KernelVersion: sweep.KernelVersion, Created: time.Now().UTC()}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), append(mb, '\n'), 0o666); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "spec.json"), specJSON, 0o666); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	dst := filepath.Join(st.dir, id)
	if err := os.Rename(tmp, dst); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return &StoredJob{
		ID: id, Dir: dst, Shards: meta.Shards, Kernel: meta.KernelVersion,
		Created: meta.Created, Spec: spec, SpecJSON: specJSON,
	}, nil
}

// load reads one job directory back.
func (st *Store) load(name string) (*StoredJob, error) {
	dir := filepath.Join(st.dir, name)
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta storedMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("fabric: %s/meta.json: %w", name, err)
	}
	if meta.ID != name || meta.Shards < 1 {
		return nil, fmt.Errorf("fabric: %s/meta.json names job %q with %d shards — store corrupt", name, meta.ID, meta.Shards)
	}
	sb, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, err
	}
	spec, err := sweep.Load(strings.NewReader(string(sb)))
	if err != nil {
		return nil, fmt.Errorf("fabric: %s/spec.json: %w", name, err)
	}
	return &StoredJob{
		ID: meta.ID, Dir: dir, Shards: meta.Shards, Kernel: meta.KernelVersion,
		Created: meta.Created, Spec: spec, SpecJSON: sb,
	}, nil
}

// Jobs rescans the store and returns every job in creation order —
// the startup rebuild path. Temp dirs (a crash mid-create) and stray
// files are ignored; a directory that looks like a job but fails to
// load is an error, not silent data loss.
func (st *Store) Jobs() ([]*StoredJob, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		name string
	}
	var names []numbered
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, ok := jobSeq(e.Name()); ok {
			names = append(names, numbered{n, e.Name()})
		}
	}
	sort.Slice(names, func(a, b int) bool { return names[a].n < names[b].n })
	jobs := make([]*StoredJob, 0, len(names))
	for _, nm := range names {
		j, err := st.load(nm.name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Remove deletes a job's directory — the DELETE-a-terminal-job path.
func (st *Store) Remove(id string) error {
	if _, ok := jobSeq(id); !ok {
		return fmt.Errorf("fabric: bad job id %q", id)
	}
	return os.RemoveAll(filepath.Join(st.dir, id))
}
