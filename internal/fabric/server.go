// Package fabric is the distributed sweep fabric: the HTTP job server
// behind `faultexp serve` and `faultexp worker`, the client the
// coordinator uses to drive workers, the durable on-disk job store,
// and the coordinator itself — handing a grid spec's cell order to a
// worker fleet in contiguous chunks, keeping each job's records in one
// file in cell order, and streaming them back byte-identical to a
// single-node run.
//
// The whole package leans on one invariant from internal/sweep: a
// cell's bytes depend only on (grid seed, semantic cell key), never on
// which process computed it or when. That makes any chunk of cells
// computable on any worker, any output prefix resumable (ScanResume),
// and a fleet run bit-for-bit equal to a laptop run.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/sweep"
)

// resultLog is the in-memory result sink a served job streams into: a
// sweep.Writer that keeps every encoded JSONL line, plus a condition
// variable so any number of HTTP readers can follow the stream live —
// including readers that attach mid-run or re-attach with ?from= after
// a dropped connection. The coordinator reuses it as a job's line log
// (appendLine), which holds the stored records in cell order.
type resultLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	lines [][]byte
	bytes int64
	// maxBytes caps the retained result bytes (0 = unlimited): a served
	// job is an in-memory sink, so without a cap one huge grid could
	// hold the daemon's heap hostage for as long as the job stays in
	// the store.
	maxBytes  int64
	truncated bool
	done      bool
}

func newResultLog(maxBytes int64) *resultLog {
	l := &resultLog{maxBytes: maxBytes}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Write implements sweep.Writer. The stored line is exactly what
// NewJSONL would have written — json.Marshal plus a newline — which is
// what makes the HTTP stream byte-identical to the CLI output. A write
// that would push the log past maxBytes fails the job instead: the
// returned error aborts the run (surfacing in the job snapshot), and a
// final parseable record with an Err field closes the stream so a
// follower sees why it stopped short rather than a silent truncation.
func (l *resultLog) Write(r *sweep.Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.truncated {
		return fmt.Errorf("fabric: result log over -max-result-bytes=%d", l.maxBytes)
	}
	if l.maxBytes > 0 && l.bytes+int64(len(b)) > l.maxBytes {
		l.truncated = true
		tail, _ := json.Marshal(&sweep.Result{Kernel: sweep.KernelVersion, Err: fmt.Sprintf("result stream truncated: output exceeds -max-result-bytes=%d", l.maxBytes)})
		l.lines = append(l.lines, append(tail, '\n'))
		l.cond.Broadcast()
		return fmt.Errorf("fabric: result log over -max-result-bytes=%d", l.maxBytes)
	}
	l.bytes += int64(len(b))
	l.lines = append(l.lines, b)
	l.cond.Broadcast()
	return nil
}

// Flush implements sweep.Writer (lines are visible as soon as they are
// written; there is nothing buffered to push).
func (l *resultLog) Flush() error { return nil }

// appendLine stores one already-encoded JSONL line (newline included)
// — the coordinator's path, where lines arrive verbatim from worker
// streams and must not be re-encoded.
func (l *resultLog) appendLine(b []byte) {
	l.mu.Lock()
	l.bytes += int64(len(b))
	l.lines = append(l.lines, b)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// count returns how many lines the log holds.
func (l *resultLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// finish marks the stream complete and wakes every follower.
func (l *resultLog) finish() {
	l.mu.Lock()
	l.done = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next blocks until line i exists, the log is finished, or ctx (the
// HTTP request's context) is cancelled; ok=false means the stream is
// over for this reader.
func (l *resultLog) next(ctx context.Context, i int) (line []byte, ok bool) {
	// Wake the cond wait when the reader disappears, so a dropped
	// connection doesn't park a goroutine for the rest of a long run.
	stopWatch := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stopWatch()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i >= len(l.lines) && !l.done && ctx.Err() == nil {
		l.cond.Wait()
	}
	if i < len(l.lines) && ctx.Err() == nil {
		return l.lines[i], true
	}
	return nil, false
}

// servedJob is one submission: the Job, its result log, and its place
// in the pool's admission queue.
type servedJob struct {
	id      string
	job     *sweep.Job
	log     *resultLog
	created time.Time
	adm     *admission
}

// stop cancels the job without waiting: a queued job leaves the queue,
// a running one drains at a cell boundary. It reports whether the job
// was still queued.
func (s *servedJob) stop() (queued bool) {
	queued = s.adm.stop()
	s.job.Cancel()
	return queued
}

// cancel stops the job, and when it was still queued waits for its
// terminal state: its run goroutine starts it pre-cancelled — Start
// with a cancelled job dispatches nothing — so the wait is immediate.
func (s *servedJob) cancel() error {
	if s.stop() {
		<-s.job.Done()
	}
	return nil
}

func (s *servedJob) jobState() sweep.JobState { return s.job.Snapshot().State }

func (s *servedJob) line(ctx context.Context, i int) ([]byte, bool) { return s.log.next(ctx, i) }

// Config sizes a Server.
type Config struct {
	// MaxActive bounds the jobs executing concurrently; submissions
	// beyond it queue as pending. Defaults to 2.
	MaxActive int
	// MaxJobs bounds the jobs held in memory at all; when full,
	// finished jobs are evicted oldest-first and POST fails only if
	// every held job is still active. Defaults to 64.
	MaxJobs int
	// MaxResultBytes caps the retained result bytes per job (0 =
	// unlimited).
	MaxResultBytes int64
	// Cache/Flight, when set, are shared by every job: the cache makes
	// overlapping grids incremental across jobs and server restarts;
	// the flight dedups identical cells in concurrent jobs.
	Cache  *cache.Cache
	Flight *cache.Flight
}

// Server owns every submitted job and the bounded concurrency pool: at
// most MaxActive jobs execute at once (a semaphore; later submissions
// sit in JobPending until a slot frees, FIFO by goroutine wakeup), and
// at most MaxJobs are held in memory at all. It is the engine behind
// both `faultexp serve` (a standalone daemon) and `faultexp worker`
// (the same surface, driven by a coordinator via the shard/skip/limit
// query parameters on POST /v1/jobs).
type Server struct {
	ctx  context.Context
	sem  chan struct{}
	cfg  Config
	jobs jobTable[*servedJob]

	// mu serializes submit's room check, id and insert.
	mu  sync.Mutex
	seq int
}

// NewServer builds a Server whose jobs run under ctx (cancelling it
// cancels every job).
func NewServer(ctx context.Context, cfg Config) *Server {
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 2
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 64
	}
	return &Server{
		ctx: ctx,
		sem: make(chan struct{}, cfg.MaxActive),
		cfg: cfg,
	}
}

// submit validates nothing itself — the spec arrives pre-validated by
// sweep.Load — it registers the job and hands it to the pool runner.
func (m *Server) submit(spec *sweep.Spec, opts ...sweep.JobOption) (*servedJob, error) {
	log := newResultLog(m.cfg.MaxResultBytes)
	opts = append([]sweep.JobOption{sweep.WithWriter(log),
		sweep.WithCache(m.cfg.Cache), sweep.WithFlight(m.cfg.Flight)}, opts...)
	job, err := sweep.NewJob(spec, opts...)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if !m.jobs.makeRoom(m.cfg.MaxJobs) {
		m.mu.Unlock()
		return nil, errTooManyJobs
	}
	m.seq++
	sj := &servedJob{
		id:      fmt.Sprintf("job-%d", m.seq),
		job:     job,
		log:     log,
		created: time.Now(),
		adm:     newAdmission(),
	}
	m.jobs.add(sj.id, sj)
	m.mu.Unlock()
	go m.run(sj)
	return sj, nil
}

var errTooManyJobs = fmt.Errorf("job store full")

// run waits for a pool slot, executes the job, and completes its result
// log. A job stopped while queued (DELETE, or server shutdown) still
// passes through Start, pre-cancelled, so it reaches the ordinary
// cancelled terminal state at once, computing nothing, and its streams
// close.
func (m *Server) run(sj *servedJob) {
	if sj.adm.wait(m.ctx, m.sem) {
		defer func() { <-m.sem }()
	} else {
		sj.job.Cancel()
	}
	if err := sj.job.Start(m.ctx); err == nil {
		sj.job.Wait()
	}
	sj.log.finish()
}

// CancelAll is the shutdown path: every job drains at a cell boundary.
func (m *Server) CancelAll() {
	for _, sj := range m.jobs.list() {
		sj.stop()
	}
}

// JobView is the JSON shape of one job in responses.
type JobView struct {
	ID       string         `json:"id"`
	Created  time.Time      `json:"created"`
	Snapshot sweep.Snapshot `json:"snapshot"`
	// Removed marks a DELETE response for a job that was already
	// terminal: the job (and its stored results) left the store.
	Removed bool `json:"removed,omitempty"`
}

func (s *servedJob) view(removed bool) any {
	return JobView{ID: s.id, Created: s.created, Snapshot: s.job.Snapshot(), Removed: removed}
}

// Health is the GET /healthz body, on workers and the coordinator
// alike: enough for a fleet operator (or the coordinator itself) to
// spot version and kernel skew before any cell bytes mix. KernelVersion
// is the sweep measurement-kernel stamp — two daemons disagreeing on it
// may produce different bytes for the same cell, so the coordinator
// refuses to dispatch to a kernel-skewed worker.
type Health struct {
	Service       string `json:"service"`
	Version       string `json:"version"`
	KernelVersion string `json:"kernel_version"`
	MaxActive     int    `json:"max_active"`
	ActiveJobs    int    `json:"active_jobs"`
	HeldJobs      int    `json:"held_jobs"`
}

// BuildVersion reports the module version the running binary was built
// as, from the linker-embedded build info ("devel" for a plain local
// build).
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	return v
}

// Handler wires the /v1 routes plus /healthz.
func (m *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /healthz", m.handleHealth)
	m.jobs.register(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (m *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.jobs.health("faultexp", cap(m.sem)))
}

// handleSubmit accepts a grid spec and queues it. Three query
// parameters form the worker protocol — they restrict the run without
// touching the spec JSON (which stays the exact schema the CLI -spec
// flag takes):
//
//	?shard=i/m  run only round-robin shard i of m (sweep.WithShard)
//	?skip=K     skip the first K cells of that shard (sweep.WithSkipCells)
//	?limit=N    then run only the next N cells, N ≥ 1 and within the
//	            run (sweep.WithCellLimit)
//
// The coordinator dispatches each chunk of a grid's cell order as
// ?skip=lo&limit=n; ?shard= with ?skip= is the resume path of a
// round-robin slice.
func (m *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// sweep.Load applies the full spec contract: unknown fields, family
	// registry, measures, models, rates, trials — same as -spec files.
	spec, err := sweep.Load(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var opts []sweep.JobOption
	if tok := r.URL.Query().Get("shard"); tok != "" {
		sh, err := sweep.ParseShard(tok)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		opts = append(opts, sweep.WithShard(sh))
	}
	if tok := r.URL.Query().Get("skip"); tok != "" {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad skip=%q, want a cell count ≥ 0", tok)
			return
		}
		opts = append(opts, sweep.WithSkipCells(n))
	}
	if tok := r.URL.Query().Get("limit"); tok != "" {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit=%q, want a cell count ≥ 1", tok)
			return
		}
		opts = append(opts, sweep.WithCellLimit(n))
	}
	sj, err := m.submit(spec, opts...)
	if err == errTooManyJobs {
		httpError(w, http.StatusServiceUnavailable, "job store full: all %d held jobs are still queued or running; cancel one (DELETE /v1/jobs/{id}) or retry later", m.cfg.MaxJobs)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+sj.id)
	writeJSON(w, http.StatusCreated, sj.view(false))
}
