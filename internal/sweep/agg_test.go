package sweep

import (
	"faultexp/internal/stats"

	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"testing"
)

// aggInput runs the toy grid and returns its JSONL output (3 families ×
// 4 rates of the toy measure).
func aggInput(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := runSpec(toySpec(), NewJSONL(&buf), WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAggregatorGroupsAndReduces(t *testing.T) {
	a, err := NewAggregator([]string{"rate"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddJSONL(bytes.NewReader(aggInput(t))); err != nil {
		t.Fatal(err)
	}
	if a.Records != 12 || a.Skipped != 0 {
		t.Fatalf("records=%d skipped=%d, want 12/0", a.Records, a.Skipped)
	}
	rows := a.Rows()
	// 4 rate groups; draw_mean and rate_echo everywhere, plus
	// inf_gets_dropped only where finite (rate > 0).
	byGroup := map[string]map[string]AggRow{}
	for _, r := range rows {
		g := r.Group[0]
		if byGroup[g] == nil {
			byGroup[g] = map[string]AggRow{}
		}
		byGroup[g][r.Metric] = r
	}
	if len(byGroup) != 4 {
		t.Fatalf("%d groups, want 4: %v", len(byGroup), byGroup)
	}
	// Groups sort numerically by rate.
	if rows[0].Group[0] != "0" || rows[len(rows)-1].Group[0] != "0.5" {
		t.Errorf("group order wrong: first=%s last=%s", rows[0].Group[0], rows[len(rows)-1].Group[0])
	}
	r0 := byGroup["0"]
	if _, ok := r0["inf_gets_dropped"]; ok {
		t.Error("dropped nonfinite metric aggregated at rate 0")
	}
	echo := byGroup["0.25"]["rate_echo"]
	if echo.N != 3 || echo.Mean != 0.25 || echo.Std != 0 || echo.Min != 0.25 || echo.Max != 0.25 || echo.Median != 0.25 {
		t.Errorf("rate_echo row %+v", echo)
	}
	draw := byGroup["0.1"]["draw_mean"]
	if draw.N != 3 || draw.Min > draw.Median || draw.Median > draw.Max {
		t.Errorf("draw_mean row violates order stats: %+v", draw)
	}
	if draw.Std <= 0 {
		t.Errorf("draw_mean std = %v, want > 0 across families", draw.Std)
	}
}

func TestAggregatorMetricFilterAndGlobalGroup(t *testing.T) {
	a, err := NewAggregator(nil, []string{"draw_mean"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddJSONL(bytes.NewReader(aggInput(t))); err != nil {
		t.Fatal(err)
	}
	rows := a.Rows()
	if len(rows) != 1 || rows[0].Metric != "draw_mean" || rows[0].N != 12 {
		t.Fatalf("rows %+v, want one global draw_mean over 12 records", rows)
	}
	if len(rows[0].Group) != 0 {
		t.Errorf("global group carries values: %v", rows[0].Group)
	}
}

func TestAggregatorSkipsErrorRecords(t *testing.T) {
	jsonl := `{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0,"trials":1,"seed":1,"kernel":"fx-kernels-v9","metrics":{"v":2}}
{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0,"trials":1,"seed":2,"kernel":"fx-kernels-v9","err":"boom"}
{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0.5,"trials":1,"seed":3,"kernel":"fx-kernels-v9","metrics":{"v":6}}
`
	a, _ := NewAggregator([]string{"measure"}, nil)
	if err := a.AddJSONL(strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	if a.Records != 2 || a.Skipped != 1 {
		t.Fatalf("records=%d skipped=%d, want 2/1", a.Records, a.Skipped)
	}
	rows := a.Rows()
	if len(rows) != 1 || rows[0].Mean != 4 || rows[0].Min != 2 || rows[0].Max != 6 || rows[0].Median != 4 {
		t.Fatalf("rows %+v", rows)
	}
	if math.Abs(rows[0].Std-math.Sqrt2*2) > 1e-12 {
		t.Errorf("std %v, want 2√2", rows[0].Std)
	}
}

// TestAggregatorRefusesMixedKernels: agg reads its inputs as merge
// reads shards without a spec, so records of two kernel generations,
// in one input or across two, are refused, and the error names the
// record and both stamps.
func TestAggregatorRefusesMixedKernels(t *testing.T) {
	rec := func(seed int, kernel string) string {
		return fmt.Sprintf(`{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0,"trials":1,"seed":%d%s,"metrics":{"v":1}}`+"\n", seed, kernel)
	}
	v9, v8 := `,"kernel":"fx-kernels-v9"`, `,"kernel":"fx-kernels-v8"`
	a, _ := NewAggregator(nil, nil)
	if err := a.AddJSONL(strings.NewReader(rec(1, v9) + rec(2, v9))); err != nil {
		t.Fatal(err)
	}
	if err := a.AddJSONL(strings.NewReader(rec(3, v8))); err == nil ||
		!strings.Contains(err.Error(), `record 0 has kernel stamp "fx-kernels-v8", the first record "fx-kernels-v9"`) {
		t.Errorf("a second input from another generation = %v, want a refusal", err)
	}
	b, _ := NewAggregator(nil, nil)
	if err := b.AddJSONL(strings.NewReader(rec(1, v9) + rec(2, ""))); err == nil || !strings.Contains(err.Error(), "record 1 has kernel stamp none") {
		t.Errorf("an unstamped record after a stamped one = %v, want a refusal", err)
	}
}

func TestAggregatorWriters(t *testing.T) {
	a, _ := NewAggregator([]string{"family", "rate"}, []string{"rate_echo"})
	if err := a.AddJSONL(bytes.NewReader(aggInput(t))); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := a.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(cb.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"family", "rate", "metric", "n", "mean", "std", "min", "max", "median"}; strings.Join(rows[0], ",") != strings.Join(want, ",") {
		t.Errorf("CSV header %v", rows[0])
	}
	if len(rows) != 1+12 { // 3 families × 4 rates, one metric
		t.Errorf("%d CSV rows, want 13", len(rows))
	}
	var jb bytes.Buffer
	if err := a.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(jb.Bytes()), []byte("\n"))
	if len(lines) != 12 {
		t.Errorf("%d JSONL rows, want 12", len(lines))
	}
	if !bytes.Contains(lines[0], []byte(`"group":{"family":`)) || !bytes.Contains(lines[0], []byte(`"metric":"rate_echo"`)) {
		t.Errorf("JSONL row shape: %s", lines[0])
	}
	// Determinism: the same input renders the same bytes.
	b, _ := NewAggregator([]string{"family", "rate"}, []string{"rate_echo"})
	if err := b.AddJSONL(bytes.NewReader(aggInput(t))); err != nil {
		t.Fatal(err)
	}
	var cb2 bytes.Buffer
	if err := b.WriteCSV(&cb2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), cb2.Bytes()) {
		t.Error("CSV output not deterministic")
	}
}

func TestParseAggDims(t *testing.T) {
	dims, err := ParseAggDims("family, rate ,measure")
	if err != nil || len(dims) != 3 || dims[1] != "rate" {
		t.Fatalf("ParseAggDims = %v, %v", dims, err)
	}
	if dims, err := ParseAggDims(""); err != nil || len(dims) != 0 {
		t.Errorf("empty dims = %v, %v", dims, err)
	}
	for _, bad := range []string{"nope", "family,family"} {
		if _, err := ParseAggDims(bad); err == nil {
			t.Errorf("ParseAggDims(%q) accepted", bad)
		}
	}
	if _, err := NewAggregator([]string{"bogus"}, nil); err == nil {
		t.Error("NewAggregator accepted a bogus dimension")
	}
}

// TestAggMedianExactForSmallGroups pins the median contract: groups of
// up to aggExactMedianCap values get the exact interpolated median
// (stats.Median), and only larger groups fall back to the P² streaming
// estimate. The input is adversarial for P²: a skewed sequence whose
// running estimate never equals the true median after the exact-n≤5
// regime.
func TestAggMedianExactForSmallGroups(t *testing.T) {
	rec := func(seed uint64, v float64) *Result {
		return &Result{Family: "torus", Measure: "x", Model: "iid-node",
			Trials: 1, Seed: seed, Metrics: map[string]float64{"v": v}}
	}
	feed := func(xs []float64) AggRow {
		t.Helper()
		a, err := NewAggregator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range xs {
			if err := a.Add(rec(uint64(i), v)); err != nil {
				t.Fatal(err)
			}
		}
		rows := a.Rows()
		if len(rows) != 1 {
			t.Fatalf("%d rows, want 1", len(rows))
		}
		return rows[0]
	}

	// Small group: 8 skewed values whose exact median is 3.5. The P²
	// estimate over this order is provably different — assert that, so
	// the test keeps its bite if the estimator ever changes.
	xs := []float64{1000, 1, 2, 3, 4, 500, 750, 900}
	want := stats.Median(xs)
	var p2 = stats.NewP2(0.5)
	for _, v := range xs {
		p2.Add(v)
	}
	if p2.Value() == want {
		t.Fatalf("test input no longer distinguishes P² (%v) from the exact median", p2.Value())
	}
	if row := feed(xs); row.Median != want {
		t.Errorf("small-group median = %v, want exact %v (P² would say %v)", row.Median, want, p2.Value())
	}

	// Exactly at the cap: still exact.
	atCap := make([]float64, aggExactMedianCap)
	for i := range atCap {
		atCap[i] = float64((i * 37) % aggExactMedianCap)
	}
	if row := feed(atCap); row.Median != stats.Median(atCap) {
		t.Errorf("at-cap median = %v, want exact %v", row.Median, stats.Median(atCap))
	}

	// Past the cap: the buffer is dropped and the P² estimate takes
	// over (and stays within the sample range).
	big := make([]float64, aggExactMedianCap+40)
	for i := range big {
		big[i] = float64((i * 97) % len(big))
	}
	p2 = stats.NewP2(0.5)
	for _, v := range big {
		p2.Add(v)
	}
	if row := feed(big); row.Median != p2.Value() {
		t.Errorf("large-group median = %v, want the P² estimate %v", row.Median, p2.Value())
	}
}
