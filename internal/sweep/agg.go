package sweep

// The streaming aggregation layer behind `faultexp agg`: group sweep
// JSONL records by chosen dimensions and reduce every metric to
// n/mean/std/min/max/median summary rows — the tables an
// expansion-vs-fault-rate plot with error bars wants. Aggregation is
// single-pass and O(groups × metrics) in memory (stats.Stream +
// P2Quantile per pair; no record buffering), so multi-gigabyte sweep
// outputs summarize in a bounded footprint.
//
// The median column is exact for groups of up to aggExactMedianCap
// values (each pair keeps that bounded window of raw values) and a P²
// streaming estimate beyond — the honest trade for O(1) space. Small
// groups are the common case (one value per family per rate point), and
// the P² estimate is only exact for n ≤ 5, so without the window the
// "median" column was usually an approximation of a handful of values
// it could trivially have held.

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"faultexp/internal/stats"
)

// AggDims lists the record dimensions a summary can group by, in
// canonical order.
var AggDims = []string{"family", "size", "n", "m", "measure", "model", "rate", "trials", "seed"}

// aggNumericDim marks the dimensions whose values sort numerically.
var aggNumericDim = map[string]bool{"n": true, "m": true, "rate": true, "trials": true, "seed": true}

// dimValue renders a record's value for a grouping dimension in its
// canonical output-token form.
func dimValue(r *Result, dim string) (string, error) {
	switch dim {
	case "family":
		return r.Family, nil
	case "size":
		return r.Size, nil
	case "n":
		return strconv.Itoa(r.N), nil
	case "m":
		return strconv.Itoa(r.M), nil
	case "measure":
		return r.Measure, nil
	case "model":
		return r.Model, nil
	case "rate":
		return rateToken(r.Rate), nil
	case "trials":
		return strconv.Itoa(r.Trials), nil
	case "seed":
		return strconv.FormatUint(r.Seed, 10), nil
	}
	return "", fmt.Errorf("sweep: unknown agg dimension %q (have %s)", dim, strings.Join(AggDims, ", "))
}

// ParseAggDims parses and validates a comma-separated dimension list.
// An empty list is valid and means one global group.
func ParseAggDims(list string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if _, err := dimValue(&Result{}, tok); err != nil {
			return nil, err
		}
		if seen[tok] {
			return nil, fmt.Errorf("sweep: duplicate agg dimension %q", tok)
		}
		seen[tok] = true
		out = append(out, tok)
	}
	return out, nil
}

// aggExactMedianCap is the group size up to which the median is exact:
// each (group, metric) pair buffers at most this many raw values. Past
// the cap the buffer is released and the P² estimate takes over.
const aggExactMedianCap = 64

// aggMetric accumulates one (group, metric) pair.
type aggMetric struct {
	stream stats.Stream
	median stats.P2Quantile
	// small holds every value while the group fits the exact-median
	// window; nil once the group outgrows it.
	small []float64
}

// medianValue returns the pair's median: exact over the buffered values
// while the group is small, the P² estimate once it has outgrown the
// window.
func (m *aggMetric) medianValue() float64 {
	if len(m.small) > 0 {
		return stats.Median(m.small)
	}
	return m.median.Value()
}

// aggGroup is one group's accumulators plus its dimension values.
type aggGroup struct {
	values  []string
	metrics map[string]*aggMetric
}

// Aggregator consumes sweep Results (or raw JSONL streams) and groups
// every finite metric value by the chosen dimensions. Error-carrying
// records are counted in Skipped, not aggregated; the nonfinite marker
// rides the record, not the metric map, so dropped keys never skew a
// summary.
type Aggregator struct {
	by      []string
	want    map[string]bool // metric filter; nil = every metric
	groups  map[string]*aggGroup
	stamps  oneKernel // across every AddJSONL input
	Records int       // records aggregated
	Skipped int       // error records skipped
}

// NewAggregator returns an aggregator grouping by the given dimensions
// (each from AggDims; empty = one global group), keeping only the named
// metrics (nil/empty = all).
func NewAggregator(by []string, metrics []string) (*Aggregator, error) {
	for _, dim := range by {
		if _, err := dimValue(&Result{}, dim); err != nil {
			return nil, err
		}
	}
	a := &Aggregator{by: append([]string(nil), by...), groups: map[string]*aggGroup{}}
	if len(metrics) > 0 {
		a.want = map[string]bool{}
		for _, m := range metrics {
			a.want[m] = true
		}
	}
	return a, nil
}

// Add folds one record into the aggregation.
func (a *Aggregator) Add(r *Result) error {
	if r.Err != "" {
		a.Skipped++
		return nil
	}
	values := make([]string, len(a.by))
	for i, dim := range a.by {
		v, err := dimValue(r, dim)
		if err != nil {
			return err
		}
		values[i] = v
	}
	key := strings.Join(values, "\x1f")
	g, ok := a.groups[key]
	if !ok {
		g = &aggGroup{values: values, metrics: map[string]*aggMetric{}}
		a.groups[key] = g
	}
	for name, v := range r.Metrics {
		if a.want != nil && !a.want[name] {
			continue
		}
		m, ok := g.metrics[name]
		if !ok {
			m = &aggMetric{median: stats.NewP2(0.5)}
			g.metrics[name] = m
		}
		m.stream.Add(v)
		m.median.Add(v)
		if m.stream.N() <= aggExactMedianCap {
			m.small = append(m.small, v)
		} else {
			m.small = nil
		}
	}
	a.Records++
	return nil
}

// AddJSONL streams a sweep JSONL output into the aggregation, read as
// merge reads its shards: RecordReader's rule, and every record of
// every input carrying the first one's kernel stamp (oneKernel). Record
// order only affects the (order-sensitive) P² median estimate of groups
// larger than aggExactMedianCap; a fixed input is therefore a fixed
// output.
func (a *Aggregator) AddJSONL(r io.Reader) error {
	rr := NewRecordReader(r, nil)
	for {
		_, res, err := rr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("sweep: agg: %w", err)
		}
		if err := a.stamps.check(res); err != nil {
			return fmt.Errorf("sweep: agg: record %d %w", rr.Index-1, err)
		}
		if err := a.Add(res); err != nil {
			return err
		}
	}
}

// NumRows returns how many summary rows Rows would render, without
// materializing (or sorting) them.
func (a *Aggregator) NumRows() int {
	n := 0
	for _, g := range a.groups {
		n += len(g.metrics)
	}
	return n
}

// AggRow is one summary row: a group's dimension values (parallel to
// By()) and one metric's reduction. Median is exact for groups of up to
// aggExactMedianCap values and a P² streaming estimate for larger ones.
type AggRow struct {
	Group  []string
	Metric string
	N      int64
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Rows renders the aggregation, sorted by group values (numerically for
// numeric dimensions, lexically otherwise) and then by metric name —
// a deterministic table for a deterministic input.
func (a *Aggregator) Rows() []AggRow {
	groups := make([]*aggGroup, 0, len(a.groups))
	for _, g := range a.groups {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return a.lessValues(groups[i].values, groups[j].values)
	})
	var out []AggRow
	for _, g := range groups {
		names := make([]string, 0, len(g.metrics))
		for name := range g.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := g.metrics[name]
			out = append(out, AggRow{
				Group:  g.values,
				Metric: name,
				N:      m.stream.N(),
				Mean:   m.stream.Mean(),
				Std:    m.stream.Std(),
				Min:    m.stream.Min(),
				Max:    m.stream.Max(),
				Median: m.medianValue(),
			})
		}
	}
	return out
}

// lessValues orders two groups' dimension tuples.
func (a *Aggregator) lessValues(x, y []string) bool {
	for i, dim := range a.by {
		if x[i] == y[i] {
			continue
		}
		if aggNumericDim[dim] {
			xv, xerr := strconv.ParseFloat(x[i], 64)
			yv, yerr := strconv.ParseFloat(y[i], 64)
			if xerr == nil && yerr == nil && xv != yv {
				return xv < yv
			}
		}
		return x[i] < y[i]
	}
	return false
}

// aggFloat renders a summary value in the writers' shortest-round-trip
// form.
func aggFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes the summary table as CSV: one header row (the group
// dimensions, then metric,n,mean,std,min,max,median), one row per
// (group, metric).
func (a *Aggregator) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), a.by...), "metric", "n", "mean", "std", "min", "max", "median")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range a.Rows() {
		rec := append(append([]string(nil), row.Group...),
			row.Metric, strconv.FormatInt(row.N, 10),
			aggFloat(row.Mean), aggFloat(row.Std),
			aggFloat(row.Min), aggFloat(row.Max), aggFloat(row.Median))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// aggJSONRow is the JSONL rendering of one summary row; the fixed field
// order (and json's sorted map keys) keep the encoding byte-stable.
type aggJSONRow struct {
	Group  map[string]string `json:"group,omitempty"`
	Metric string            `json:"metric"`
	N      int64             `json:"n"`
	Mean   float64           `json:"mean"`
	Std    float64           `json:"std"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	Median float64           `json:"median"`
}

// WriteJSONL writes the summary as one JSON object per row.
func (a *Aggregator) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, row := range a.Rows() {
		jr := aggJSONRow{
			Metric: row.Metric, N: row.N,
			Mean: row.Mean, Std: row.Std,
			Min: row.Min, Max: row.Max, Median: row.Median,
		}
		if len(a.by) > 0 {
			jr.Group = map[string]string{}
			for i, dim := range a.by {
				jr.Group[dim] = row.Group[i]
			}
		}
		b, err := json.Marshal(jr)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
