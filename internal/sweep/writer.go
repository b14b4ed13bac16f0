package sweep

// Pluggable streaming result writers. Both built-in formats are
// append-only and byte-deterministic: JSONL encodes the fixed-order
// Result struct (metrics keys sorted by encoding/json), and CSV emits
// long-format rows (one per metric, keys sorted) so grids with
// heterogeneous measures still share one uniform column set.

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Writer consumes streamed sweep results. Write is called once per cell,
// in cell order, never concurrently; a job calls Flush once at the end
// (Flush must be idempotent).
type Writer interface {
	Write(r *Result) error
	Flush() error
}

// JSONLWriter streams one JSON object per line.
type JSONLWriter struct {
	bw *bufio.Writer
}

// NewJSONL returns a JSONL writer over w.
func NewJSONL(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Write implements Writer.
func (j *JSONLWriter) Write(r *Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := j.bw.Write(b); err != nil {
		return err
	}
	return j.bw.WriteByte('\n')
}

// Flush implements Writer.
func (j *JSONLWriter) Flush() error { return j.bw.Flush() }

// csvHeader is the fixed long-format column set.
var csvHeader = []string{
	"family", "size", "n", "m", "measure", "model", "rate", "trials",
	"seed", "metric", "value",
}

// CSVWriter streams long-format CSV: one row per (cell, metric), plus a
// row with metric "err" for failed cells, after a single header row.
type CSVWriter struct {
	cw     *csv.Writer
	wrote  bool
	header []string
}

// NewCSV returns a CSV writer over w.
func NewCSV(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w), header: csvHeader}
}

// Write implements Writer.
func (c *CSVWriter) Write(r *Result) error {
	if !c.wrote {
		c.wrote = true
		if err := c.cw.Write(c.header); err != nil {
			return err
		}
	}
	base := []string{
		r.Family, r.Size, strconv.Itoa(r.N), strconv.Itoa(r.M),
		r.Measure, r.Model, rateToken(r.Rate), strconv.Itoa(r.Trials),
		strconv.FormatUint(r.Seed, 10),
	}
	row := func(metric, value string) error {
		return c.cw.Write(append(base[:len(base):len(base)], metric, value))
	}
	if r.Err != "" {
		if err := row("err", r.Err); err != nil {
			return err
		}
	} else {
		for _, k := range r.MetricNames() {
			if err := row(k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	// Dropped non-finite keys ride as one extra row so the CSV stream
	// carries the same half-broken-cell signal as the JSONL stream.
	if r.Nonfinite != "" {
		return row("nonfinite", r.Nonfinite)
	}
	return nil
}

// Flush implements Writer.
func (c *CSVWriter) Flush() error {
	if !c.wrote {
		c.wrote = true
		if err := c.cw.Write(c.header); err != nil {
			return err
		}
	}
	c.cw.Flush()
	return c.cw.Error()
}

// MultiWriter fans every result out to several writers (e.g. JSONL to a
// file and CSV to stdout in one pass).
type MultiWriter []Writer

// Write implements Writer.
func (m MultiWriter) Write(r *Result) error {
	for _, w := range m {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Writer.
func (m MultiWriter) Flush() error {
	for _, w := range m {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}
