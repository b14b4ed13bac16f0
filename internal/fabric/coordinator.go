package fabric

// The coordinator: accepts grid specs on the same /v1 job surface as
// serve, hands each job's cell order to a fleet of worker daemons in
// contiguous chunks, and streams the records back in cell order —
// byte-identical to a single-node run, because a cell's bytes depend
// only on (grid seed, cell key), never on which worker computed it.
//
// Dispatch is self-scheduling: whenever a worker has a free slot, it
// gets the job's next chunk, the lowest cells not yet stored or
// dispatched, ⌈R / 2S⌉ of them for R such cells and S fleet slots
// (workers × MaxInflight), sent as ?skip=lo&limit=n. This is the
// factoring rule of Hummel, Schonberg & Flynn (CACM 35(8), 1992): the
// first chunks are large, so few dispatches carry most cells, and the
// last ones small, so no worker is left with a long tail while the
// others idle.
//
// The store keeps each job as one record file in cell order, the bytes
// a single-node `faultexp sweep` writes. Every record a worker streams
// is verified against its own cell and appended, verbatim, once the
// file holds every cell before it; until then it is held in memory.
//
// Failure handling is resume, not redo: a failed attempt keeps every
// record it verified and returns only its unreceived cells to the free
// pool, so a worker that dies or straggles mid-chunk costs a
// re-dispatch, never the recomputation of a verified cell. The same
// machinery makes the coordinator itself crash-safe: on startup every
// job is rebuilt from its store directory, its record file re-verified
// with sweep.RecordReader (a torn final line truncated), and the cells
// past the verified prefix are dispatched like a fresh job's.
//
// Backpressure is per-worker: at most MaxInflight chunks run on one
// worker at a time, and the next chunk waits for a free slot instead of
// piling requests onto a loaded fleet.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"faultexp/internal/sweep"
)

// CoordinatorConfig wires a Coordinator.
type CoordinatorConfig struct {
	// Workers are the worker daemons' addresses ("host:port" or URLs).
	// An empty fleet is allowed — jobs queue until workers respond to
	// health checks.
	Workers []string
	// Store is the durable job store (required).
	Store *Store
	// MaxActive bounds jobs dispatching concurrently (default 2).
	MaxActive int
	// MaxInflight bounds the chunks running on one worker at a time —
	// the fleet-wide backpressure knob (default 1). With the fleet size
	// it also sets the chunk size.
	MaxInflight int
	// MaxResultBytes caps a job's result bytes (0 = unlimited). Every
	// record is checked against it before it is stored, so a job whose
	// next record would pass the cap fails, and its record file ends at
	// the last record under the cap.
	MaxResultBytes int64
	// HealthInterval is the worker health-check period (default 2s).
	HealthInterval time.Duration
	// RetryDelay is the pause before a failed attempt's unreceived
	// cells return to the free pool (default 500ms).
	RetryDelay time.Duration
	// MaxAttempts bounds the job's consecutive attempts that deliver no
	// record before it fails (default 5). An attempt that delivers any
	// record resets the count — a worker death mid-stream never burns
	// the budget as long as someone, somewhere, computes cells.
	MaxAttempts int
}

func (cfg *CoordinatorConfig) fill() error {
	if cfg.Store == nil {
		return fmt.Errorf("fabric: coordinator needs a Store")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 2
	}
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 1
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 500 * time.Millisecond
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 5
	}
	return nil
}

// workerRef is one fleet member's registry entry. All mutable fields
// are guarded by Coordinator.mu.
type workerRef struct {
	base   string
	client *Client

	healthy  bool
	kernelOK bool
	kernel   string
	version  string
	inflight int
	lastErr  string
	fails    int // consecutive failed attempts: acquire's tie-break
	// down is non-nil while the worker is healthy and is closed on the
	// healthy→down transition, so in-flight attempts streaming from a
	// worker the health checker has declared dead abort immediately
	// instead of hanging on a stalled TCP connection.
	down chan struct{}
}

// WorkerView is one worker's state in /healthz and /v1/workers.
type WorkerView struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	KernelVersion string `json:"kernel_version,omitempty"`
	KernelOK      bool   `json:"kernel_ok"`
	Version       string `json:"version,omitempty"`
	Inflight      int    `json:"inflight"`
	Err           string `json:"err,omitempty"`
}

// ShardView is the progress of a job's record file, shard "0/1", in a
// job view.
type ShardView struct {
	Shard    string `json:"shard"`
	Lines    int    `json:"lines"`
	Expected int    `json:"expected"`
	Worker   string `json:"worker,omitempty"`
}

// CoordJobView is the JSON shape of one coordinator job: the familiar
// id/created/snapshot triple (snapshot.cells_done is the stored prefix
// a results stream could deliver right now) plus a one-entry list with
// the record file's progress.
type CoordJobView struct {
	ID       string         `json:"id"`
	Created  time.Time      `json:"created"`
	Snapshot sweep.Snapshot `json:"snapshot"`
	Shards   []ShardView    `json:"shards"`
	Removed  bool           `json:"removed,omitempty"`
}

// CoordHealth is the coordinator's GET /healthz body: a worker's
// fields, then the fleet.
type CoordHealth struct {
	Health
	Workers []WorkerView `json:"workers"`
}

// chunk is one dispatch: the cells [lo, hi) of the job's cell order,
// run on one worker as ?skip=lo&limit=hi-lo. Its fields never change.
type chunk struct {
	lo, hi int
	worker string
}

// coordJob is one job's in-memory state: a line log mirroring the
// durable record file, plus dispatch bookkeeping.
type coordJob struct {
	id       string
	stored   *StoredJob
	spec     *sweep.Spec
	specJSON []byte
	created  time.Time
	maxBytes int64

	cells []sweep.Cell // the grid's cells in order (what records verify against)
	log   *resultLog   // the stored records, in cell order (results streams read it)
	file  *os.File     // the durable append handle (while running)
	adm   *admission   // the job's place in the dispatch queue

	mu     sync.Mutex
	state  sweep.JobState
	errMsg string
	// Dispatch: free marks the nfree cells that are neither stored,
	// received nor dispatched; chunks are the ones running on workers;
	// running counts the attempts not yet settled, retry delays
	// included; idle counts consecutive attempts that delivered no
	// record. wake is closed and replaced when free or running changes.
	free    []bool
	nfree   int
	chunks  []*chunk
	running int
	idle    int
	wake    chan struct{}

	// placeMu orders placement and guards bytes, the stored records'
	// size; held keeps each verified record that arrived before the
	// cells ahead of it, by cell index.
	placeMu sync.Mutex
	bytes   int64
	held    map[int][]byte
}

// cancel writes the store's cancelled marker, so a restart doesn't
// resurrect the job, and stops it, even when the marker write fails. A
// job stopped while still queued (also one queued at shutdown) is never
// admitted, so cancel settles it as cancelled itself.
func (cj *coordJob) cancel() error {
	err := cj.stored.MarkCancelled()
	if cj.adm.stop() {
		cj.finish(sweep.JobCancelled, nil)
	}
	if err != nil {
		return fmt.Errorf("cancelled %s, but a restart would resume it: %v", cj.id, err)
	}
	return nil
}

func (cj *coordJob) jobState() sweep.JobState {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.state
}

// line returns cell i's record, exactly as the worker produced (and the
// durable file holds) it.
func (cj *coordJob) line(ctx context.Context, i int) ([]byte, bool) {
	return cj.log.next(ctx, i)
}

// finish moves the job to a terminal state exactly once, completing
// its log so results streams end.
func (cj *coordJob) finish(s sweep.JobState, err error) {
	cj.mu.Lock()
	if cj.state.Terminal() {
		cj.mu.Unlock()
		return
	}
	cj.state = s
	if err != nil {
		cj.errMsg = err.Error()
	}
	cj.mu.Unlock()
	cj.log.finish()
}

// fail settles the job as failed, then stops its dispatch and aborts
// every running attempt, which all watch adm.stopped.
func (cj *coordJob) fail(err error) {
	cj.finish(sweep.JobFailed, err)
	cj.adm.stop()
}

// appendRecord verifies nothing (the caller already did); it checks the
// result cap, appends the line, newline included, to the durable record
// file in one write (so a kill tears at most the final line, exactly
// what the store rebuild truncates), then publishes it to the in-memory
// log feeding results streams, which keeps line. Durable-first ordering
// means a line a client saw is always on disk. Caller holds placeMu.
func (cj *coordJob) appendRecord(line []byte) error {
	if cj.maxBytes > 0 && cj.bytes+int64(len(line)) > cj.maxBytes {
		return fmt.Errorf("job %s exceeds the result retention cap (-max-result-bytes=%d)", cj.id, cj.maxBytes)
	}
	if _, err := cj.file.Write(line); err != nil {
		return fmt.Errorf("appending to %s: %w", cj.stored.RecordPath(), err)
	}
	cj.bytes += int64(len(line))
	cj.log.appendLine(line)
	return nil
}

// place stores the verified record of cell c, a line with its newline,
// which place copies. The record is appended once the file holds
// exactly c lines and held until then; each append releases the next
// cell's held record.
func (cj *coordJob) place(c int, line []byte) error {
	line = bytes.Clone(line)
	cj.placeMu.Lock()
	defer cj.placeMu.Unlock()
	if cj.log.count() != c {
		cj.held[c] = line
		return nil
	}
	for {
		if err := cj.appendRecord(line); err != nil {
			return err
		}
		c++
		var ok bool
		if line, ok = cj.held[c]; !ok {
			return nil
		}
		delete(cj.held, c)
	}
}

// takeChunk hands worker base the next chunk: the lowest free cell and
// the free cells right after it, at most ⌈R / 2S⌉ cells for R free
// cells and S fleet slots. The caller has seen free cells.
func (cj *coordJob) takeChunk(slots int, base string) *chunk {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	lo := slices.Index(cj.free, true)
	n := (cj.nfree + 2*slots - 1) / (2 * slots)
	hi := lo
	for hi < len(cj.cells) && hi-lo < n && cj.free[hi] {
		cj.free[hi] = false
		hi++
	}
	cj.nfree -= hi - lo
	ch := &chunk{lo: lo, hi: hi, worker: base}
	cj.chunks = append(cj.chunks, ch)
	cj.running++
	return ch
}

// signalLocked wakes the job's dispatch loop. Caller holds cj.mu.
func (cj *coordJob) signalLocked() {
	close(cj.wake)
	cj.wake = make(chan struct{})
}

// view reports the worker whose running chunk holds the job's next
// missing cell.
func (cj *coordJob) view(removed bool) any {
	cj.mu.Lock()
	state, errMsg := cj.state, cj.errMsg
	chunks := slices.Clone(cj.chunks)
	cj.mu.Unlock()
	done, worker := cj.log.count(), ""
	for _, ch := range chunks {
		if ch.lo <= done && done < ch.hi {
			worker = ch.worker
		}
	}
	return CoordJobView{
		ID:      cj.id,
		Created: cj.created,
		Snapshot: sweep.Snapshot{
			State:      state,
			CellsDone:  done,
			CellsTotal: len(cj.cells),
			Err:        errMsg,
		},
		Shards:  []ShardView{{Shard: "0/1", Lines: done, Expected: len(cj.cells), Worker: worker}},
		Removed: removed,
	}
}

// Coordinator owns the worker registry and every durable job.
type Coordinator struct {
	ctx   context.Context
	cfg   CoordinatorConfig
	store *Store
	sem   chan struct{}
	jobs  jobTable[*coordJob]

	mu      sync.Mutex
	workers []*workerRef
	notify  chan struct{} // closed+replaced when dispatch capacity may have appeared
}

// NewCoordinator opens the fleet registry and rebuilds every job from
// the durable store: complete jobs come back terminal with their
// results streamable, cancelled jobs stay cancelled, and incomplete
// jobs re-enter the dispatch queue resuming from their verified
// prefixes — the SIGKILL-loses-nothing property.
func NewCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		ctx:    ctx,
		cfg:    cfg,
		store:  cfg.Store,
		sem:    make(chan struct{}, cfg.MaxActive),
		notify: make(chan struct{}),
	}
	c.jobs.onRemove = c.store.Remove
	for _, addr := range cfg.Workers {
		cl := NewClient(addr)
		c.workers = append(c.workers, &workerRef{base: cl.Base, client: cl, lastErr: "not probed yet"})
	}
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	go c.healthLoop()
	return c, nil
}

// rebuild loads every stored job back into memory and requeues the
// unfinished ones; runJob dispatches the cells past their verified
// prefixes.
func (c *Coordinator) rebuild() error {
	stored, err := c.store.Jobs()
	if err != nil {
		return err
	}
	for _, sj := range stored {
		cj, loadErr := c.buildJob(sj, false)
		c.jobs.add(cj.id, cj)
		switch {
		case loadErr != nil:
			cj.finish(sweep.JobFailed, loadErr)
		case cj.log.count() == len(cj.cells):
			cj.finish(sweep.JobDone, nil)
		case sj.Cancelled():
			cj.finish(sweep.JobCancelled, nil)
		case sj.Kernel != sweep.KernelVersion:
			cj.finish(sweep.JobFailed, fmt.Errorf(
				"job was computed under kernel stamp %q but this coordinator runs %q — splicing could mix bytes; re-submit the spec",
				sj.Kernel, sweep.KernelVersion))
		default:
			go c.runJob(cj)
		}
	}
	return nil
}

// buildJob materializes a coordJob from its stored state. When resume
// is wanted (existing jobs), the record file is verified against the
// cell order with sweep.RecordReader — a torn tail (the mid-write kill
// signature) is truncated away — and the verified prefix loaded into
// the log. A job stored as round-robin shard files is refused with its
// files untouched. The returned error marks the job failed; the job
// object itself is always usable for views.
func (c *Coordinator) buildJob(sj *StoredJob, fresh bool) (*coordJob, error) {
	cj := &coordJob{
		id:       sj.ID,
		stored:   sj,
		spec:     sj.Spec,
		specJSON: sj.SpecJSON,
		created:  sj.Created,
		maxBytes: c.cfg.MaxResultBytes,
		cells:    sj.Spec.Cells(),
		log:      newResultLog(0),
		adm:      newAdmission(),
		state:    sweep.JobPending,
		wake:     make(chan struct{}),
		held:     map[int][]byte{},
	}
	switch {
	case fresh:
		return cj, nil
	case sj.Shards != 1:
		return cj, fmt.Errorf("job is stored as %d round-robin shard files, a layout this coordinator does not resume; `faultexp merge -dir %s` reads a complete set, or re-submit the spec", sj.Shards, sj.Dir)
	}
	return cj, cj.loadPrefix()
}

// loadPrefix restores the record file's verified durable prefix into
// the job's log in one streamed pass (the job is not shared yet, so
// cj.bytes needs no lock) and truncates a torn tail on disk.
func (cj *coordJob) loadPrefix() error {
	path := cj.stored.RecordPath()
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rr := sweep.NewRecordReader(f, cj.cells)
	line, _, err := rr.Next()
	for ; err == nil; line, _, err = rr.Next() {
		cj.bytes += int64(len(line))
		cj.log.appendLine(bytes.Clone(line))
	}
	switch {
	case errors.Is(err, sweep.ErrTorn):
		return os.Truncate(path, rr.Offset)
	case err != io.EOF:
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// submit durably registers a new job (spec on disk before the response
// commits to an id) and queues it.
func (c *Coordinator) submit(spec *sweep.Spec, specJSON []byte) (*coordJob, error) {
	sj, err := c.store.Create(spec, specJSON)
	if err != nil {
		return nil, err
	}
	cj, _ := c.buildJob(sj, true)
	c.jobs.add(cj.id, cj)
	go c.runJob(cj)
	return cj, nil
}

// signalLocked wakes every goroutine waiting for dispatch capacity.
// Caller holds c.mu.
func (c *Coordinator) signalLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// healthLoop probes the fleet forever. The first probe fires
// immediately so a freshly started coordinator dispatches as soon as
// workers answer.
func (c *Coordinator) healthLoop() {
	c.probeAll()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
}

func (c *Coordinator) probe(w *workerRef) {
	timeout := c.cfg.HealthInterval
	if timeout > 5*time.Second {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(c.ctx, timeout)
	defer cancel()
	h, err := w.client.Health(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.markDownLocked(w, err.Error())
		return
	}
	w.kernel = h.KernelVersion
	w.version = h.Version
	w.kernelOK = h.KernelVersion == sweep.KernelVersion
	if !w.kernelOK {
		// Kernel skew: the worker is alive but would compute (and
		// cache) bytes under a different kernel stamp. Refuse to
		// dispatch rather than silently mixing outputs.
		w.lastErr = fmt.Sprintf("kernel skew: worker runs %q, coordinator wants %q — not dispatching", h.KernelVersion, sweep.KernelVersion)
	} else {
		w.lastErr = ""
	}
	if !w.healthy {
		w.healthy = true
		w.down = make(chan struct{})
		if w.kernelOK {
			c.signalLocked()
		}
	}
}

// markDownLocked transitions a worker to down, aborting every attempt
// currently streaming from it. Caller holds c.mu.
func (c *Coordinator) markDownLocked(w *workerRef, reason string) {
	w.lastErr = reason
	if w.healthy {
		w.healthy = false
		close(w.down)
		w.down = nil
	}
}

// markDown is the stream-failure path: a worker whose stream just died
// is treated as down immediately; the next successful probe revives it.
func (c *Coordinator) markDown(w *workerRef, reason string) {
	c.mu.Lock()
	c.markDownLocked(w, reason)
	c.mu.Unlock()
}

// acquire blocks until some healthy, kernel-matched worker has a free
// in-flight slot (the backpressure gate), preferring the least loaded,
// then the one with the fewest consecutive failed attempts, so a worker
// that refuses every submit loses ties to one that works. It returns
// the worker and a snapshot of its down channel for the attempt watcher.
func (c *Coordinator) acquire(cj *coordJob) (*workerRef, <-chan struct{}, error) {
	for {
		c.mu.Lock()
		var best *workerRef
		for _, w := range c.workers {
			if w.healthy && w.kernelOK && w.inflight < c.cfg.MaxInflight {
				if best == nil || w.inflight < best.inflight ||
					w.inflight == best.inflight && w.fails < best.fails {
					best = w
				}
			}
		}
		if best != nil {
			best.inflight++
			down := best.down
			c.mu.Unlock()
			return best, down, nil
		}
		wait := c.notify
		c.mu.Unlock()
		select {
		case <-wait:
		case <-cj.adm.stopped:
			return nil, nil, errJobCancelled
		case <-c.ctx.Done():
			return nil, nil, c.ctx.Err()
		}
	}
}

func (c *Coordinator) release(w *workerRef) {
	c.mu.Lock()
	w.inflight--
	c.signalLocked()
	c.mu.Unlock()
}

var errJobCancelled = errors.New("job cancelled")

// permanentError marks a failure retrying cannot fix (a verification
// mismatch, the retention cap, a 4xx refusal).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permErr(format string, args ...any) error {
	return &permanentError{fmt.Errorf(format, args...)}
}

func isPermanent(err error) bool {
	var pe *permanentError
	if errors.As(err, &pe) {
		return true
	}
	var se *StatusError
	return errors.As(err, &se) && se.Permanent()
}

// runJob drives one job to a terminal state: wait for a dispatch slot,
// ensure the record file exists (a merge -dir input from the first
// byte), then hand out chunks of the cell order, each to the next
// worker with a free slot, until every cell is stored or the job stops,
// and settle the state.
func (c *Coordinator) runJob(cj *coordJob) {
	if !cj.adm.wait(c.ctx, c.sem) {
		// Stopped while queued, which cancel settles, or shut down: the
		// job stays durable and resumes on the next start. Either way,
		// end any local streams.
		cj.log.finish()
		return
	}
	defer func() { <-c.sem }()
	cj.mu.Lock()
	cj.state = sweep.JobRunning
	// The free cells are the ones past the verified prefix: every cell
	// of a fresh job, the rest of a rebuilt one.
	cj.free = make([]bool, len(cj.cells))
	for i := cj.log.count(); i < len(cj.free); i++ {
		cj.free[i] = true
		cj.nfree++
	}
	cj.mu.Unlock()
	f, err := os.OpenFile(cj.stored.RecordPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		cj.finish(sweep.JobFailed, err)
		return
	}
	cj.file = f
	defer f.Close()
	slots := max(1, len(c.cfg.Workers)*c.cfg.MaxInflight)
	var wg sync.WaitGroup
	for c.awaitFree(cj) {
		// Slot first, then chunk: the chunk size counts the cells still
		// free at dispatch time.
		w, down, err := c.acquire(cj)
		if err != nil {
			break
		}
		if cj.adm.isStopped() {
			// The job stopped while acquire waited: a cancel, or a failure
			// whose attempt released the slot acquire got.
			c.release(w)
			break
		}
		ch := cj.takeChunk(slots, w.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runChunk(cj, ch, w, down)
		}()
	}
	wg.Wait()
	switch {
	case cj.adm.isStopped():
		// Cancelled, unless a failure already settled the job.
		cj.finish(sweep.JobCancelled, nil)
	case c.ctx.Err() != nil:
		// Shutdown: end the log without settling a terminal state, as
		// the job's real state lives on disk.
		cj.log.finish()
	default:
		cj.finish(sweep.JobDone, nil)
	}
}

// awaitFree blocks until the job has free cells and reports true, or
// reports false once nothing is left to dispatch: every cell has been
// received, the job stopped, or the coordinator is shutting down.
func (c *Coordinator) awaitFree(cj *coordJob) bool {
	for {
		cj.mu.Lock()
		nfree, running, wake := cj.nfree, cj.running, cj.wake
		cj.mu.Unlock()
		if cj.adm.isStopped() || c.ctx.Err() != nil {
			return false
		}
		if nfree > 0 || running == 0 {
			return nfree > 0
		}
		select {
		case <-wake:
		case <-cj.adm.stopped:
		case <-c.ctx.Done():
		}
	}
}

// runChunk runs one attempt of chunk ch on worker w and settles it. The
// job keeps every record the attempt verified. A permanent error fails
// the job, and so does the MaxAttempts-th consecutive attempt that
// delivered no record, in both cases before the worker slot goes back.
// After any other failure the attempt keeps the slot for RetryDelay, so
// a worker that keeps refusing is sent one chunk per delay rather than
// every free chunk at once, then returns the chunk's unreceived cells
// to the free pool.
func (c *Coordinator) runChunk(cj *coordJob, ch *chunk, w *workerRef, down <-chan struct{}) {
	got, err := c.chunkAttempt(cj, ch, w, down)
	c.mu.Lock()
	w.fails++
	if err == nil {
		w.fails = 0
	}
	c.mu.Unlock()
	cj.mu.Lock()
	cj.chunks = slices.DeleteFunc(cj.chunks, func(o *chunk) bool { return o == ch })
	if got > 0 {
		cj.idle = 0
	} else {
		cj.idle++
	}
	idle := cj.idle
	cj.mu.Unlock()
	if err != nil && !cj.adm.isStopped() && c.ctx.Err() == nil {
		switch {
		case isPermanent(err):
			cj.fail(err)
		case idle >= c.cfg.MaxAttempts:
			cj.fail(fmt.Errorf("job %s stalled: %d consecutive attempts made no progress (last: %v)", cj.id, idle, err))
		}
	}
	if err != nil {
		select {
		case <-time.After(c.cfg.RetryDelay):
		case <-cj.adm.stopped:
		case <-c.ctx.Done():
		}
	}
	c.release(w)
	cj.mu.Lock()
	for i := ch.lo + got; i < ch.hi; i++ {
		cj.free[i] = true
	}
	cj.nfree += ch.hi - ch.lo - got
	cj.running--
	cj.signalLocked()
	cj.mu.Unlock()
}

// chunkAttempt runs chunk ch on worker w: submit with ?skip=lo&limit=n
// over the unsharded cell order, stream the results, verify every
// record against its own cell (seed + trial budget + block partition —
// the ScanResume contract applied online), and place it. It stops
// reading at the chunk's last record, so a worker that ignores ?limit=
// is cut off there (the deferred DELETE cancels its job), and it aborts
// the moment the job stops or the health checker declares the worker
// down. got counts the records placed, a prefix of the chunk.
func (c *Coordinator) chunkAttempt(cj *coordJob, ch *chunk, w *workerRef, down <-chan struct{}) (got int, err error) {
	n := ch.hi - ch.lo
	actx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-down:
			cancel()
		case <-cj.adm.stopped:
			cancel()
		case <-stop:
		case <-actx.Done():
		}
	}()

	id, err := w.client.SubmitLimit(actx, cj.specJSON, sweep.Shard{}, ch.lo, n)
	if err != nil {
		c.markDownIfTransport(w, err)
		return 0, fmt.Errorf("submitting cells [%d, %d) to %s: %w", ch.lo, ch.hi, w.base, err)
	}
	defer func() {
		// Best-effort cleanup off the attempt context (which may be
		// dead): cancel a still-running worker job, remove a finished
		// one, so worker memory doesn't hold one job per dispatch.
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer dcancel()
		w.client.Delete(dctx, id)
	}()

	body, err := w.client.Results(actx, id, 0)
	if err != nil {
		c.markDownIfTransport(w, err)
		return 0, fmt.Errorf("streaming cells [%d, %d) from %s: %w", ch.lo, ch.hi, w.base, err)
	}
	defer body.Close()
	rr := sweep.NewRecordReader(body, nil)
	for ; got < n; got++ {
		line, res, err := rr.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, sweep.ErrTorn) || errors.Is(err, sweep.ErrMalformed) {
			// A stream cut short inside a line, or a garbled line:
			// retryable, the verified records are kept and the worker
			// stays up.
			return got, fmt.Errorf("worker %s: stream of cells [%d, %d): %v", w.base, ch.lo, ch.hi, err)
		}
		if err != nil {
			// A read error with the job still wanted means the worker (or
			// its connection) died mid-stream — treat it as down right
			// away instead of waiting a health-check period. A stopped
			// job's aborted read proves nothing about the worker.
			if !cj.adm.isStopped() && c.ctx.Err() == nil {
				c.markDown(w, fmt.Sprintf("stream died mid-chunk: %v", err))
			}
			return got, fmt.Errorf("worker %s: stream of cells [%d, %d) died after %d records: %v", w.base, ch.lo, ch.hi, got, err)
		}
		cell := ch.lo + got
		want := &cj.cells[cell]
		if res.Err != "" && res.Seed != want.Seed {
			// A worker-side stream-failure record (e.g. its own result
			// cap): not cell output, don't persist it.
			return got, fmt.Errorf("worker %s reported: %s", w.base, res.Err)
		}
		if err := sweep.CheckRecord(res, want); err != nil {
			return got, permErr("worker %s: record %d %v", w.base, cell, err)
		}
		if err := cj.place(cell, line); err != nil {
			return got, &permanentError{err}
		}
	}
	if got == n {
		return got, nil
	}
	// Clean EOF but short: the worker job ended early (cancelled or
	// failed on its side). Ask it why if it still answers.
	detail := ""
	dctx, dcancel := context.WithTimeout(c.ctx, 2*time.Second)
	if v, err := w.client.Job(dctx, id); err == nil {
		detail = fmt.Sprintf(" (worker job %s", v.Snapshot.State)
		if v.Snapshot.Err != "" {
			detail += ": " + v.Snapshot.Err
		}
		detail += ")"
	}
	dcancel()
	return got, fmt.Errorf("worker %s: stream of cells [%d, %d) ended after %d records%s", w.base, ch.lo, ch.hi, got, detail)
}

// markDownIfTransport marks the worker down on transport-level
// failures (connection refused, reset, timeout) but not on HTTP-level
// refusals, which prove the worker is alive.
func (c *Coordinator) markDownIfTransport(w *workerRef, err error) {
	var se *StatusError
	if errors.As(err, &se) || errors.Is(err, context.Canceled) {
		return
	}
	c.markDown(w, err.Error())
}

func (c *Coordinator) workerViews() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		views = append(views, WorkerView{
			URL:           w.base,
			Healthy:       w.healthy,
			KernelVersion: w.kernel,
			KernelOK:      w.kernelOK,
			Version:       w.version,
			Inflight:      w.inflight,
			Err:           w.lastErr,
		})
	}
	return views
}
