package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"

	"faultexp/internal/sweep"
)

// FuzzCoordinatorRebuild writes arbitrary bytes as the record file of
// one stored job of the fabric test grid and rebuilds the store with a
// coordinator that has no workers. NewCoordinator must neither panic
// nor fail. The job then either failed with an error, or its log holds
// exactly the first k complete lines of the bytes, each passing
// CheckRecord at its cell, only a torn tail (no newline) followed them,
// and the file on disk is cut to those k lines. The store and its job
// are made once per fuzz process; each input rewrites the file.
func FuzzCoordinatorRebuild(f *testing.F) {
	ref := refBytes(f, workerSpecJSON)
	lines := bytes.SplitAfter(ref, []byte("\n"))
	five := bytes.Join(lines[:5], nil)
	f.Add(ref)
	f.Add(five)
	f.Add(append(bytes.Clone(five), `{"family":"torn`...))          // a killed write's torn tail
	f.Add(append(append(bytes.Clone(lines[0]), '\n'), lines[1]...)) // a blank interior line
	f.Add(bytes.Join(lines[1:], nil))                               // records one cell off
	f.Add([]byte("{}\nnull\n"))
	f.Add([]byte{})
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sj, err := st.Create(loadSpec(f, workerSpecJSON), []byte(workerSpecJSON))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(sj.RecordPath(), data, 0o666); err != nil {
			t.Fatal(err)
		}
		ctx, shutdown := context.WithCancel(context.Background())
		co, err := NewCoordinator(ctx, CoordinatorConfig{Store: st})
		if err != nil {
			shutdown()
			t.Fatalf("NewCoordinator: %v", err)
		}
		cj := co.jobs.list()[0]
		// Shut down, and wait until the job's run, if one started, has
		// opened the record file and ended its log, so the run is done
		// with the store before the next input rewrites the file or the
		// fuzz process removes the store.
		shutdown()
		cj.log.next(context.Background(), cj.log.count())
		if cj.jobState() == sweep.JobFailed {
			if cj.view(false).(CoordJobView).Snapshot.Err == "" {
				t.Fatal("the rebuilt job failed without an error")
			}
			return
		}
		k := cj.log.count()
		var kept []byte
		for j := 0; j < k; j++ {
			line, _ := cj.log.next(context.Background(), j)
			kept = append(kept, line...)
			var r sweep.Result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("log line %d is not a record: %v", j, err)
			}
			if err := sweep.CheckRecord(&r, &cj.cells[j]); err != nil {
				t.Fatalf("log line %d %v", j, err)
			}
		}
		if !bytes.HasPrefix(data, kept) || bytes.IndexByte(data[len(kept):], '\n') >= 0 {
			t.Fatalf("log holds %d lines that are not the file's complete lines", k)
		}
		if disk, err := os.ReadFile(sj.RecordPath()); err != nil || !bytes.Equal(disk, kept) {
			t.Fatalf("record file holds %d bytes after the rebuild (%v), want its %d verified bytes", len(disk), err, len(kept))
		}
	})
}

// selectRecords is the worker protocol written out: the reference
// records that ?shard=, ?skip= and ?limit= select, in stream order,
// and whether the protocol accepts the three at all.
func selectRecords(ref [][]byte, shard, skip, limit string) ([][]byte, bool) {
	recs := ref
	if shard != "" {
		sh, err := sweep.ParseShard(shard)
		if err != nil {
			return nil, false
		}
		recs = nil
		for c, r := range ref {
			if c%sh.Count == sh.Index {
				recs = append(recs, r)
			}
		}
	}
	lo, hi := 0, len(recs)
	if skip != "" {
		n, err := strconv.Atoi(skip)
		if err != nil || n < 0 || n > hi {
			return nil, false
		}
		lo = n
	}
	if limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil || n < 1 || n > hi-lo {
			return nil, false
		}
		hi = lo + n
	}
	return recs[lo:hi], true
}

// checkRefusal fails t unless rec is a 4xx with an {"error": …} body.
func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder, what string) {
	t.Helper()
	var body struct {
		Error string `json:"error"`
	}
	if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("%s answered %d %q, want a 4xx with an error body", what, rec.Code, rec.Body.Bytes())
	}
}

// FuzzWorkerQuery posts the fabric test grid to a worker with arbitrary
// shard, skip and limit parameters, then reads its results with an
// arbitrary from. Each input must give either a 4xx with an
// {"error": …} body, for exactly the inputs the protocol refuses, or
// the reference records the four parameters select — never a panic or
// a 5xx.
func FuzzWorkerQuery(f *testing.F) {
	ref := bytes.SplitAfter(refBytes(f, workerSpecJSON), []byte("\n"))
	ref = ref[:len(ref)-1]
	srv := NewServer(context.Background(), Config{MaxActive: 2})
	f.Cleanup(srv.CancelAll)
	h := srv.Handler()
	f.Add("", "", "", "")
	f.Add("1/3", "2", "", "")
	f.Add("", "5", "7", "3")
	f.Add("2/3", "1", "7", "")
	f.Add("0/2", "12", "1", "")
	f.Add("0/1", "0", "24", "24")
	f.Add("", "23", "1", "0")
	f.Add("", "", "0", "")
	f.Add("3/3", "-1", "x", "-2")
	f.Add("", "+3", "25", "99")
	f.Fuzz(func(t *testing.T, shard, skip, limit, from string) {
		q := url.Values{"shard": {shard}, "skip": {skip}, "limit": {limit}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?"+q.Encode(), strings.NewReader(workerSpecJSON)))
		want, ok := selectRecords(ref, shard, skip, limit)
		if rec.Code != http.StatusCreated {
			checkRefusal(t, rec, "POST "+q.Encode())
			if ok {
				t.Fatalf("POST %s refused a query the protocol accepts", q.Encode())
			}
			return
		}
		if !ok {
			t.Fatalf("POST %s accepted a query the protocol refuses", q.Encode())
		}
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		defer h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+v.ID, nil))
		target := "/v1/jobs/" + v.ID + "/results?" + url.Values{"from": {from}}.Encode()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		start := 0
		if from != "" {
			n, err := strconv.Atoi(from)
			if err != nil || n < 0 {
				checkRefusal(t, rec, "GET "+target)
				return
			}
			start = min(n, len(want))
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), bytes.Join(want[start:], nil)) {
			t.Fatalf("POST %s, GET %s answered %d with %d bytes, want the %d selected records from %d",
				q.Encode(), target, rec.Code, rec.Body.Len(), len(want), start)
		}
	})
}
