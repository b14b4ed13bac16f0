package main

// The loopback fleet of the fleet-overlap workload: a coordinator with a
// durable store and two worker daemons sharing one result-cache
// directory, each with its own single-flight group — set up exactly as
// `faultexp coordinator` and `faultexp worker -cache DIR` set themselves
// up with their default flags — all listening on 127.0.0.1 inside this
// process.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/fabric"
	"faultexp/internal/sweep"
)

// Default flag values of `faultexp worker` and `faultexp coordinator`.
// The health interval matters: at 50 ms, probes of workers saturating
// every core time out and healthy workers are marked down.
const (
	daemonMaxActive     = 2
	workerMaxJobs       = 64
	maxResultBytes      = 64 << 20
	coordMaxInflight    = 1
	coordHealthInterval = 2 * time.Second
	coordRetryDelay     = 500 * time.Millisecond
	fleetWorkers        = 2
)

type fleet struct {
	cancel  context.CancelFunc
	servers []*http.Server
	wg      sync.WaitGroup
	base    string
	client  *fabric.Client
	store   string
}

// startFleet brings up the workers, the store and the coordinator under
// dir and returns once the coordinator reports every worker healthy.
func startFleet(ctx context.Context, dir string) (*fleet, error) {
	fctx, cancel := context.WithCancel(ctx)
	fl := &fleet{cancel: cancel, store: filepath.Join(dir, "store")}
	var workers []string
	for i := 0; i < fleetWorkers; i++ {
		rc, err := cache.Open(filepath.Join(dir, "cache"))
		if err != nil {
			fl.stop()
			return nil, err
		}
		srv := fabric.NewServer(fctx, fabric.Config{
			MaxActive: daemonMaxActive, MaxJobs: workerMaxJobs, MaxResultBytes: maxResultBytes,
			Cache: rc, Flight: cache.NewFlight(),
		})
		addr, err := fl.serve(srv.Handler())
		if err != nil {
			fl.stop()
			return nil, err
		}
		workers = append(workers, addr)
	}
	store, err := fabric.OpenStore(fl.store)
	if err != nil {
		fl.stop()
		return nil, err
	}
	co, err := fabric.NewCoordinator(fctx, fabric.CoordinatorConfig{
		Workers: workers, Store: store,
		MaxActive: daemonMaxActive, MaxInflight: coordMaxInflight, MaxResultBytes: maxResultBytes,
		HealthInterval: coordHealthInterval, RetryDelay: coordRetryDelay,
	})
	if err != nil {
		fl.stop()
		return nil, err
	}
	addr, err := fl.serve(co.Handler())
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.base = "http://" + addr
	fl.client = fabric.NewClient(addr)
	if err := fl.awaitWorkers(fctx); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (fl *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	fl.servers = append(fl.servers, srv)
	fl.wg.Add(1)
	go func() {
		defer fl.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return ln.Addr().String(), nil
}

// awaitWorkers polls the coordinator's /healthz until every worker is
// healthy and kernel-matched. The coordinator probes at start, so this
// normally takes one or two polls.
func (fl *fleet) awaitWorkers(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h fabric.CoordHealth
		err := fl.getJSON(ctx, "/healthz", &h)
		ready := 0
		for _, w := range h.Workers {
			if w.Healthy && w.KernelOK {
				ready++
			}
		}
		if err == nil && ready == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers healthy after 10s (last error: %v)", ready, fleetWorkers, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (fl *fleet) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fl.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop shuts the fleet down: cancel its jobs and health loop, close
// every server and wait for their serve loops to return.
func (fl *fleet) stop() {
	fl.cancel()
	for _, s := range fl.servers {
		s.Close()
	}
	fl.wg.Wait()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// run submits the specs one after another through fabric.Client — each
// job starts only once the previous job's last record has arrived — and
// collects every merged result stream.
func (fl *fleet) run(ctx context.Context, specs [][]byte, tr *tracer, parent int) (passOut, error) {
	po := passOut{workers: fleetWorkers}
	for _, b := range specs {
		spec, err := sweep.Load(bytes.NewReader(b))
		if err != nil {
			return po, err
		}
		po.expect = append(po.expect, len(spec.Cells()))
	}
	cpu0 := cpuTime()
	start := time.Now()
	ids := make([]string, len(specs))
	for k, spec := range specs {
		tr.setJob(k)
		jobStart := time.Now()
		out, ttfr, id, err := fl.job(ctx, spec, tr, parent)
		po.jobWalls = append(po.jobWalls, time.Since(jobStart))
		po.out = append(po.out, out)
		ids[k] = id
		if err == nil {
			po.ttfr = append(po.ttfr, ttfr)
		}
	}
	po.wall = time.Since(start)
	po.cpu = cpuTime() - cpu0
	// Job views are read after the timed loop, so the next submit
	// follows the previous job's last record directly.
	for k, id := range ids {
		tr.setJob(k)
		var v fabric.CoordJobView
		sp := tr.begin("fabric.status", parent)
		err := errors.New("submit failed")
		if id != "" {
			err = fl.getJSON(ctx, "/v1/jobs/"+id, &v)
		}
		tr.end(sp)
		// The merged stream ends as soon as every shard log is complete,
		// which can be a moment before the job's state settles to done.
		st := v.Snapshot.State
		if err != nil || st == sweep.JobFailed || st == sweep.JobCancelled || v.Snapshot.CellsDone != po.expect[k] {
			po.failedJobs++
		}
		po.shards += len(v.Shards)
	}
	tr.setJob(0)
	var err error
	po.storeBytes, err = resultBytes(fl.store)
	return po, err
}

// job runs one spec on the fleet: submit, wait for the first record,
// and drain the merged stream. id is empty only if the submit failed.
func (fl *fleet) job(ctx context.Context, spec []byte, tr *tracer, parent int) (out []byte, ttfr time.Duration, id string, err error) {
	start := time.Now()
	sp := tr.begin("fabric.submit", parent)
	id, err = fl.client.Submit(ctx, spec, sweep.Shard{}, 0)
	tr.end(sp)
	if err != nil {
		return nil, 0, "", err
	}
	sp = tr.begin("fabric.first_byte", parent)
	body, err := fl.client.Results(ctx, id, 0)
	var (
		br    *bufio.Reader
		first []byte
	)
	if err == nil {
		defer body.Close()
		br = bufio.NewReader(body)
		first, err = br.ReadBytes('\n')
		if err == io.EOF && len(first) > 0 {
			err = nil // a last line without its newline
		}
	}
	ttfr = time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, 0, id, err
	}
	sp = tr.begin("fabric.stream", parent)
	rest, err := io.ReadAll(br)
	tr.end(sp)
	return append(first, rest...), ttfr, id, err
}
