package fabric

// The coordinator's HTTP surface mirrors serve's /v1 job API — same
// verbs, same streaming semantics — so any client of `faultexp serve`
// talks to a fleet unchanged. The one deliberate difference: results
// are the merged interleave of every shard, so the stream a client
// reads is byte-identical to a single-node `faultexp sweep` of the
// same spec.

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"faultexp/internal/sweep"
)

// Handler wires the coordinator's routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/results", c.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	return mux
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.health())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.workerViews()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The raw bytes are kept verbatim: they go to disk (spec.json) and
	// to every worker, so what was submitted is exactly what runs.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := sweep.Load(bytes.NewReader(raw))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Coupled() {
		// Coupled mode computes every rate in one pass per trial, so a
		// cell-granular shard/skip doesn't exist — there is nothing for
		// the fabric to split or resume.
		httpError(w, http.StatusBadRequest, "coupled rate mode cannot shard or resume at cell granularity; run it single-node (faultexp sweep or serve)")
		return
	}
	cj, err := c.submit(spec, raw)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+cj.id)
	writeJSON(w, http.StatusCreated, cj.view())
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := c.list()
	views := make([]CoordJobView, len(jobs))
	for i, cj := range jobs {
		views[i] = cj.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	cj, ok := c.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, cj.view())
}

// handleCancel mirrors serve: DELETE on an active job cancels it
// (durably — a restart will not resurrect it); DELETE on a terminal
// job removes it from memory AND its directory from the store.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	cj, ok := c.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	v := cj.view()
	if v.Snapshot.State.Terminal() {
		c.removeJob(cj.id)
		if err := c.store.Remove(cj.id); err != nil {
			httpError(w, http.StatusInternalServerError, "removing %s from the store: %v", cj.id, err)
			return
		}
		v.Removed = true
		writeJSON(w, http.StatusOK, v)
		return
	}
	if err := cj.cancel(true); err != nil {
		httpError(w, http.StatusInternalServerError, "cancelled %s, but a restart would resume it: %v", cj.id, err)
		return
	}
	writeJSON(w, http.StatusOK, cj.view())
}

// handleResults streams the merged interleave live: cell c comes from
// shard c mod m at intra-shard index c div m, each line exactly as the
// worker produced (and the durable file holds) it — so reading this
// stream to EOF yields bytes identical to the single-node run, and
// ?from=K re-attaches a dropped client mid-stream.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	cj, ok := c.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	from, ok := parseFrom(w, r)
	if !ok {
		return
	}
	streamLog(w, r, from, func(ctx context.Context, ci int) ([]byte, bool) {
		return cj.logs[ci%cj.m].next(ctx, ci/cj.m)
	})
}
