package fabric

// The coordinator's HTTP surface is serve's /v1 job API (the list,
// get, results and DELETE routes are the shared job table's, jobs.go),
// so any client of `faultexp serve` talks to a fleet unchanged. The one
// deliberate difference: results are the records the workers computed,
// verified and stored in cell order, so the stream a client reads is
// byte-identical to a single-node `faultexp sweep` of the same spec.

import (
	"bytes"
	"io"
	"net/http"

	"faultexp/internal/sweep"
)

// Handler wires the coordinator's routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	c.jobs.register(mux)
	return mux
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CoordHealth{
		Health:  c.jobs.health("faultexp-coordinator", cap(c.sem)),
		Workers: c.workerViews(),
	})
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
	writeJSON(w, http.StatusCreated, cj.view(false))
}
