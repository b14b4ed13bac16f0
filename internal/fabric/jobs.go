package fabric

// The job table: serve and worker hold their jobs in one, and so does
// the coordinator, and the table serves the /v1 routes and the /healthz
// fields they share. Every job waits for a slot of its daemon's pool
// through one admission type.

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"faultexp/internal/sweep"
)

// tableJob is what the job table needs of one job.
type tableJob interface {
	jobState() sweep.JobState
	// view is the job's JSON shape; removed marks the DELETE response
	// for a terminal job that left the table.
	view(removed bool) any
	// line blocks until result line i exists, the stream is over, or
	// ctx ends; ok=false means the stream is over for this reader.
	line(ctx context.Context, i int) (b []byte, ok bool)
	// cancel stops the job. A job still waiting for a slot is terminal
	// when cancel returns; a running one drains afterwards.
	cancel() error
}

// admission is a job's place in the queue for its daemon's pool of
// -max-active slots: wait holds the job until it gets a slot, it is
// stopped, or the daemon shuts down. Exactly one of "admitted" and
// "stopped while queued" wins, under mu, so a job stopped while queued
// never holds a slot.
type admission struct {
	stopped chan struct{} // closed by the first stop

	mu       sync.Mutex
	admitted bool
}

func newAdmission() *admission { return &admission{stopped: make(chan struct{})} }

// wait blocks until the job takes a slot of pool, is stopped, or ctx
// ends, and reports whether it was admitted. An admitted job gives its
// slot back by receiving from pool when it ends.
func (a *admission) wait(ctx context.Context, pool chan struct{}) bool {
	select {
	case pool <- struct{}{}:
	case <-a.stopped:
		return false
	case <-ctx.Done():
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.isStopped() {
		<-pool
		return false
	}
	a.admitted = true
	return true
}

// stop stops the job and reports whether it was still queued: such a
// job is never admitted, and its daemon settles it as cancelled. A
// running job sees isStopped and drains.
func (a *admission) stop() (queued bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.isStopped() {
		close(a.stopped)
	}
	return !a.admitted
}

func (a *admission) isStopped() bool {
	select {
	case <-a.stopped:
		return true
	default:
		return false
	}
}

// jobTable holds a daemon's jobs in submission order. The zero value
// is an empty table.
type jobTable[J tableJob] struct {
	// onRemove, when set, runs after DELETE drops a terminal job: the
	// coordinator removes the job's store directory.
	onRemove func(id string) error

	mu    sync.Mutex
	jobs  map[string]J
	order []string
}

func (t *jobTable[J]) add(id string, j J) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = map[string]J{}
	}
	t.jobs[id] = j
	t.order = append(t.order, id)
}

// list returns the jobs in submission order.
func (t *jobTable[J]) list() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]J, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// remove drops one job from the table, then runs onRemove for it.
func (t *jobTable[J]) remove(id string) error {
	t.mu.Lock()
	delete(t.jobs, id)
	t.order = slices.DeleteFunc(t.order, func(o string) bool { return o == id })
	t.mu.Unlock()
	if t.onRemove != nil {
		return t.onRemove(id)
	}
	return nil
}

// makeRoom evicts the oldest terminal jobs, results and all, until
// fewer than limit are held, and reports whether one more job fits:
// false means every held job is still queued or running. Eviction does
// not run onRemove.
func (t *jobTable[J]) makeRoom(limit int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.order[:0]
	for _, id := range t.order {
		if len(t.jobs) >= limit && t.jobs[id].jobState().Terminal() {
			delete(t.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
	return len(t.jobs) < limit
}

// health builds the /healthz fields every daemon shares: held_jobs
// counts the jobs the table holds, active_jobs the running ones.
func (t *jobTable[J]) health(service string, maxActive int) Health {
	h := Health{
		Service:       service,
		Version:       BuildVersion(),
		KernelVersion: sweep.KernelVersion,
		MaxActive:     maxActive,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.HeldJobs = len(t.jobs)
	for _, j := range t.jobs {
		if j.jobState() == sweep.JobRunning {
			h.ActiveJobs++
		}
	}
	return h
}

// register mounts the routes every daemon shares on mux.
func (t *jobTable[J]) register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/jobs", t.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", t.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/results", t.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", t.handleCancel)
}

// get finds the job the request's {id} names, answering 404 itself
// when there is none.
func (t *jobTable[J]) get(w http.ResponseWriter, r *http.Request) (J, bool) {
	id := r.PathValue("id")
	t.mu.Lock()
	j, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", id)
	}
	return j, ok
}

func (t *jobTable[J]) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := t.list()
	views := make([]any, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (t *jobTable[J]) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := t.get(w, r); ok {
		writeJSON(w, http.StatusOK, j.view(false))
	}
}

// handleCancel: DELETE on a terminal job removes it and its results
// (the explicit form of serve's eviction). DELETE on a live job cancels
// it and answers with its view: a job still queued for a slot already
// shows the cancelled state, and a running one stays queryable while
// it drains.
func (t *jobTable[J]) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := t.get(w, r)
	if !ok {
		return
	}
	if j.jobState().Terminal() {
		id := r.PathValue("id")
		v := j.view(true)
		if err := t.remove(id); err != nil {
			httpError(w, http.StatusInternalServerError, "removing %s from the store: %v", id, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
		return
	}
	if err := j.cancel(); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.view(false))
}

// handleResults streams the job's JSONL live, each record flushed as it
// lands, until the job is terminal. ?from=K skips the first K records:
// the re-attach path for a client that lost a stream (records are
// deterministic, so the spliced stream is byte-identical).
func (t *jobTable[J]) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := t.get(w, r)
	if !ok {
		return
	}
	from := 0
	if tok := r.URL.Query().Get("from"); tok != "" {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from=%q, want a cell index ≥ 0", tok)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i := from; ; i++ {
		line, ok := j.line(r.Context(), i)
		if !ok {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
