package faultexp_test

// End-to-end checks for the sampled-precision tier: a "sampled:k" grid
// must be exactly as deterministic as an exact one — byte-identical
// across worker counts, shard/merge, and resume — while its records
// carry the precision tag and the sampled kernels' error-bar metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"faultexp"
	"faultexp/internal/sweep"
)

func sampledSpec() *faultexp.SweepSpec {
	return &faultexp.SweepSpec{
		Families: []faultexp.SweepFamily{
			{Family: "torus", Size: "16x16"},
			{Family: "hypercube", Size: "7"},
		},
		Measures:  []string{"diameter", "lambda2", "dilation"},
		Models:    []string{"iid-node"},
		Rates:     []float64{0, 0.1},
		Trials:    3,
		Seed:      99,
		Precision: "sampled:3",
	}
}

// TestSampledPrecisionDeterminism runs the same sampled grid at several
// worker counts and as shards, requiring byte-identical JSONL, then
// resumes a truncated prefix and requires the completed file to match.
func TestSampledPrecisionDeterminism(t *testing.T) {
	spec := sampledSpec()
	var want bytes.Buffer
	if _, err := runSweep(spec, faultexp.NewSweepJSONL(&want), faultexp.SweepJobWorkers(1)); err != nil {
		t.Fatalf("runSweep(workers=1): %v", err)
	}
	for _, workers := range []int{2, 4} {
		var got bytes.Buffer
		if _, err := runSweep(sampledSpec(), faultexp.NewSweepJSONL(&got), faultexp.SweepJobWorkers(workers)); err != nil {
			t.Fatalf("runSweep(workers=%d): %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d output differs from workers=1", workers)
		}
	}

	// Shard 0/2 + 1/2, merged, must reproduce the unsharded bytes.
	const m = 2
	shards := make([]bytes.Buffer, m)
	for i := 0; i < m; i++ {
		sh, err := sweep.ParseShard(fmt.Sprintf("%d/%d", i, m))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runSweep(sampledSpec(), faultexp.NewSweepJSONL(&shards[i]),
			faultexp.SweepJobWorkers(2), sweep.WithShard(sh)); err != nil {
			t.Fatalf("runSweep(shard %d): %v", i, err)
		}
	}
	var merged bytes.Buffer
	if _, err := sweep.MergeShards(
		[]io.Reader{bytes.NewReader(shards[0].Bytes()), bytes.NewReader(shards[1].Bytes())},
		&merged, nil, spec); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if !bytes.Equal(merged.Bytes(), want.Bytes()) {
		t.Errorf("merged sampled shards differ from unsharded run")
	}

	// Resume: keep the first 5 complete records, rerun the rest.
	lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
	prefix := bytes.Join(lines[:5], nil)
	st, err := sweep.ScanResume(bytes.NewReader(prefix), spec.Cells())
	if err != nil {
		t.Fatalf("ScanResume: %v", err)
	}
	if st.Done != 5 {
		t.Fatalf("resume verified %d cells, want 5", st.Done)
	}
	var tail bytes.Buffer
	if _, err := runSweep(sampledSpec(), faultexp.NewSweepJSONL(&tail),
		faultexp.SweepJobWorkers(3), sweep.WithSkipCells(st.Done)); err != nil {
		t.Fatalf("runSweep(resume): %v", err)
	}
	resumed := append(append([]byte(nil), prefix...), tail.Bytes()...)
	if !bytes.Equal(resumed, want.Bytes()) {
		t.Errorf("resumed sampled run differs from uninterrupted run")
	}
}

// TestSampledPrecisionRecords checks each record carries the precision
// tag and the sampled kernels' error-bar metrics.
func TestSampledPrecisionRecords(t *testing.T) {
	var out bytes.Buffer
	if _, err := runSweep(sampledSpec(), faultexp.NewSweepJSONL(&out), faultexp.SweepJobWorkers(2)); err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	wantMetrics := map[string][]string{
		"diameter": {"diameter_lb_mean", "ecc_std", "measured_frac"},
		"lambda2":  {"lambda2_mean", "residual_mean", "iters_mean", "lambda2_0"},
		"dilation": {"stretch_max_mean", "stretch_std", "dil_per_log2n"},
	}
	for i, ln := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		if !bytes.Contains(ln, []byte(`"precision":"sampled:3"`)) {
			t.Fatalf("record %d lacks the precision tag: %s", i, ln)
		}
		var res sweep.Result
		if err := json.Unmarshal(ln, &res); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if res.Err != "" {
			t.Fatalf("record %d (%s) errored: %s", i, res.Measure, res.Err)
		}
		for _, metric := range wantMetrics[res.Measure] {
			if _, ok := res.Metrics[metric]; !ok {
				t.Errorf("record %d (%s) missing metric %q", i, res.Measure, metric)
			}
		}
	}

	// Exact runs must NOT carry the tag: the default tier's bytes are
	// frozen by the CLI goldens, and this guards the library path too.
	exact := sampledSpec()
	exact.Precision = ""
	exact.Measures = []string{"gamma"}
	var exactOut bytes.Buffer
	if _, err := runSweep(exact, faultexp.NewSweepJSONL(&exactOut), faultexp.SweepJobWorkers(1)); err != nil {
		t.Fatalf("runSweep(exact): %v", err)
	}
	if bytes.Contains(exactOut.Bytes(), []byte(`"precision"`)) {
		t.Errorf("exact run emitted a precision field")
	}
}

// TestSampledPrecisionValidation checks the spec-level refusals: coupled
// rate mode does not compose with sampling, non-sampled-capable measures
// are rejected, and malformed tokens fail to parse.
func TestSampledPrecisionValidation(t *testing.T) {
	base := func() *faultexp.SweepSpec {
		return &faultexp.SweepSpec{
			Families: []faultexp.SweepFamily{{Family: "torus", Size: "8x8"}},
			Measures: []string{"gamma"},
			Models:   []string{"iid-node"},
			Rates:    []float64{0.1},
			Trials:   1,
			Seed:     1,
		}
	}

	coupled := base()
	coupled.RateMode = sweep.RateModeCoupled
	coupled.Precision = "sampled:2"
	if err := coupled.Validate(); err == nil || !strings.Contains(err.Error(), "does not compose") {
		t.Errorf("coupled+sampled validated, err=%v", err)
	}

	exactCoupled := base()
	exactCoupled.Measures = []string{"percolation"}
	exactCoupled.RateMode = sweep.RateModeCoupled
	exactCoupled.Precision = sweep.PrecisionExact.String()
	if err := exactCoupled.Validate(); err != nil {
		t.Errorf("coupled+exact refused: %v", err)
	}

	unsupported := base()
	unsupported.Measures = []string{"percolation"}
	unsupported.Precision = "sampled:2"
	if err := unsupported.Validate(); err == nil || !strings.Contains(err.Error(), "sampled-precision kernel") {
		t.Errorf("non-sampled-capable measure validated, err=%v", err)
	}

	for _, tok := range []string{"sampled", "sampled:0", "sampled:-1", "sampled:x", "approx:3"} {
		bad := base()
		bad.Precision = tok
		if err := bad.Validate(); err == nil {
			t.Errorf("precision %q validated", tok)
		}
	}

	sampled := sweep.SampledMeasures()
	if len(sampled) < 4 {
		t.Fatalf("SampledMeasures() = %v, want ≥ 4 entries", sampled)
	}
	all := map[string]bool{}
	for _, m := range sweep.Measures() {
		all[m] = true
	}
	for _, m := range sampled {
		if !all[m] {
			t.Errorf("sampled measure %q not in Measures", m)
		}
	}
}
