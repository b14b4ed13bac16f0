package fabric

// Client is how the coordinator speaks to one worker: the same /v1 job
// surface `faultexp serve` exposes, plus /healthz. Nothing here is
// coordinator-specific — any program can drive a worker with it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"faultexp/internal/sweep"
)

// Client talks to one worker daemon. Requests go through
// http.DefaultClient, which has no overall timeout — result streams are
// long-lived — so every call is bounded by its context.
type Client struct {
	// Base is the worker's base URL ("http://host:port").
	Base string
}

// NewClient normalizes addr ("host:port" or a full URL) into a Client.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

// StatusError is a non-2xx response from a worker, carrying the HTTP
// status so callers can split permanent refusals (4xx — the worker
// understood and said no; retrying elsewhere gets the same answer) from
// transient conditions.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.Status, e.Msg)
}

// Permanent reports whether retrying the request can't help: the worker
// parsed it and refused (4xx).
func (e *StatusError) Permanent() bool { return e.Status >= 400 && e.Status < 500 }

// decodeError turns a non-2xx response into a StatusError, reading the
// {"error": ...} body the server writes.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	msg := ""
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		if json.Unmarshal(b, &body) == nil && body.Error != "" {
			msg = body.Error
		} else {
			msg = strings.TrimSpace(string(b))
		}
	}
	return &StatusError{Status: resp.StatusCode, Msg: msg}
}

// do sends one request to the worker; a status other than want becomes
// a StatusError. A non-nil body is sent as JSON. With a non-nil out the
// JSON response is decoded into out and closed; otherwise the caller
// owns the returned open body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int, out any) (io.ReadCloser, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, decodeError(resp)
	}
	if out == nil {
		return resp.Body, nil
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out); err != nil {
		return nil, fmt.Errorf("decoding %s %s from %s: %w", method, path, c.Base, err)
	}
	return nil, nil
}

// Health fetches the worker's /healthz — build version, kernel-version
// stamp, capacity.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK, &h)
	return h, err
}

// Submit posts specJSON as a new job restricted to shard sh (the whole
// grid when sh.Count ≤ 1), skipping the shard's first skip cells — the
// resume path of a shard. Returns the worker's job id.
func (c *Client) Submit(ctx context.Context, specJSON []byte, sh sweep.Shard, skip int) (string, error) {
	return c.SubmitLimit(ctx, specJSON, sh, skip, 0)
}

// SubmitLimit is Submit that runs only the limit cells after the skip
// (?limit=; 0 sends none): how the coordinator dispatches one chunk of
// a grid's cell order.
func (c *Client) SubmitLimit(ctx context.Context, specJSON []byte, sh sweep.Shard, skip, limit int) (string, error) {
	path := "/v1/jobs"
	sep := "?"
	if sh.Enabled() {
		path += sep + "shard=" + sh.String()
		sep = "&"
	}
	if skip > 0 {
		path += sep + "skip=" + strconv.Itoa(skip)
		sep = "&"
	}
	if limit > 0 {
		path += sep + "limit=" + strconv.Itoa(limit)
	}
	var v JobView
	if _, err := c.do(ctx, http.MethodPost, path, specJSON, http.StatusCreated, &v); err != nil {
		return "", err
	}
	if v.ID == "" {
		return "", fmt.Errorf("worker %s returned a job with no id", c.Base)
	}
	return v.ID, nil
}

// Job fetches one job's snapshot view.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var v JobView
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &v)
	return v, err
}

// Results opens the job's live JSONL stream, skipping the first `from`
// records. The stream ends when the job reaches a terminal state; the
// caller owns closing the body.
func (c *Client) Results(ctx context.Context, id string, from int) (io.ReadCloser, error) {
	path := "/v1/jobs/" + id + "/results"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	return c.do(ctx, http.MethodGet, path, nil, http.StatusOK, nil)
}

// Delete cancels a running job or removes a terminal one — the
// coordinator's cleanup after each attempt, so worker memory doesn't
// accumulate one held job per dispatch.
func (c *Client) Delete(ctx context.Context, id string) error {
	body, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, http.StatusOK, nil)
	if err != nil {
		return err
	}
	return body.Close()
}
