package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke scale, untraced and traced,
// with every correctness check on. The traced pass must account for at
// least 95% of its wall time in layer spans, and its spans must form a
// well-nested tree.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{Seed: 7, Scale: "smoke"}
			rep, _, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertCorrect(t, rep)
			for _, m := range endToEnd {
				if len(rep.Samples[m.Name]) == 0 || median(rep.Samples[m.Name]) <= 0 {
					t.Errorf("%s: samples %v, want positive values", m.Name, rep.Samples[m.Name])
				}
			}

			cfg.Trace = true
			rep, tr, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertCorrect(t, rep)
			if err := tr.validate(); err != nil {
				t.Error(err)
			}
			if cov := rep.Layers["trace.coverage"]; cov < 0.95 || cov > 1 {
				t.Errorf("trace.coverage = %v, want within [0.95, 1]", cov)
			}
			for _, m := range append(append([]metricDef(nil), perLayer...), perLayerExtra...) {
				if _, ok := rep.Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if w.Fleet && (rep.Layers["cache.hits"] != 72 || rep.Layers["cache.hit_ratio"] != 0.6) {
				t.Errorf("cache hits %v ratio %v, want 72 and 0.6", rep.Layers["cache.hits"], rep.Layers["cache.hit_ratio"])
			}
		})
	}
}

func assertCorrect(t *testing.T, rep *report) {
	t.Helper()
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("correct %v, %d of %d cells failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestValidateRejectsBadSpans pins what a well-formed trace means.
func TestValidateRejectsBadSpans(t *testing.T) {
	root := span{Name: "bench.pass", Start: 0, End: 100, Parent: -1}
	for name, spans := range map[string][]span{
		"unknown parent": {root, {Name: "a.b", Start: 1, End: 2, Parent: 5}},
		"ends early":     {root, {Name: "a.b", Start: 3, End: 2, Parent: 0}},
		"outside parent": {root, {Name: "a.b", Start: 50, End: 150, Parent: 0}},
		"second root":    {root, {Name: "a.b", Start: 1, End: 2, Parent: -1}},
	} {
		if err := (&tracer{spans: spans}).validate(); err == nil {
			t.Errorf("%s: validate accepted %v", name, spans)
		}
	}
	if err := (&tracer{spans: []span{root, {Name: "a.b", Start: 1, End: 2, Parent: 0}}}).validate(); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// users read, in step with the workloads and metrics defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, benchmark %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %+v, benchmark %+v", spec.PerLayer, perLayer)
	}
}

// TestQuartilesMatchPython checks quartiles against the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ttfr_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	for _, tc := range []struct {
		m    metricDef
		a, b summary
		want string
	}{
		{lower, tight(1), tight(1.05), "within bound"},
		{lower, tight(1), tight(1.2), "worse"},
		{lower, tight(1), tight(0.9), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(110), "better"},
		{lower, summary{Median: 1, Q1: 0.8, Q3: 1.2, N: 10}, tight(1), "unresolved"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	a := &results{Stamp: stamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}}
	b := &results{Stamp: a.Stamp}
	b.Stamp.Commit = "other" // another commit on the same machine compares
	var sb strings.Builder
	if err := compare(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	b.Stamp.NProc = 8
	if err := compare(&sb, a, b); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Fatalf("compare across machines: %v, want a refusal naming nproc", err)
	}
}
