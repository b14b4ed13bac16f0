package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAggCLI drives the agg subcommand over a real sweep output: group
// the golden grid by measure/rate and check the summary table shape and
// determinism.
func TestAggCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.jsonl")
	args := []string{
		"-families", "mesh:4x4,torus:4x4,hypercube:4",
		"-measures", "gamma,percolation",
		"-model", "iid-node",
		"-rates", "0,0.25,0.5,0.75",
		"-trials", "2",
		"-seed", "42",
		"-quiet",
		"-jsonl", in,
	}
	if err := cmdSweep(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	csvOut := filepath.Join(dir, "sum.csv")
	jsonlOut := filepath.Join(dir, "sum.jsonl")
	if err := cmdAgg(context.Background(), []string{"-quiet", "-by", "measure,rate", "-metrics", "gamma_mean", "-csv", csvOut, "-jsonl", jsonlOut, in}); err != nil {
		t.Fatal(err)
	}
	b := readFile(t, csvOut)
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 measures × 4 rates, one metric each.
	if len(rows) != 9 {
		t.Fatalf("%d CSV rows, want 9:\n%s", len(rows), b)
	}
	if got := strings.Join(rows[0], ","); got != "measure,rate,metric,n,mean,std,min,max,median" {
		t.Errorf("header %q", got)
	}
	// Each group aggregates the 3 families; rate-0 gamma is exactly 1.
	if rows[1][0] != "gamma" || rows[1][1] != "0" || rows[1][3] != "3" || rows[1][4] != "1" {
		t.Errorf("first data row %v", rows[1])
	}
	jl := readFile(t, jsonlOut)
	if lines := bytes.Split(bytes.TrimSpace(jl), []byte("\n")); len(lines) != 8 {
		t.Errorf("%d JSONL summary rows, want 8", len(lines))
	}
	// Determinism: a second pass produces identical bytes.
	csvOut2 := filepath.Join(dir, "sum2.csv")
	if err := cmdAgg(context.Background(), []string{"-quiet", "-by", "measure,rate", "-metrics", "gamma_mean", "-csv", csvOut2, in}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, csvOut), readFile(t, csvOut2)) {
		t.Error("agg CSV output not deterministic")
	}
	// Flags may follow the input files (the README's documented form).
	csvOut3 := filepath.Join(dir, "sum3.csv")
	if err := cmdAgg(context.Background(), []string{"-quiet", "-by", "measure,rate", in, "-metrics", "gamma_mean", "-csv", csvOut3}); err != nil {
		t.Fatalf("agg with trailing flags: %v", err)
	}
	if !bytes.Equal(readFile(t, csvOut), readFile(t, csvOut3)) {
		t.Error("trailing-flag invocation differs from flags-first invocation")
	}
	// Bad dimensions and missing files are rejected.
	if err := cmdAgg(context.Background(), []string{"-quiet", "-by", "bogus", in}); err == nil {
		t.Error("agg accepted a bogus dimension")
	}
	if err := cmdAgg(context.Background(), []string{"-quiet", filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("agg accepted a missing input file")
	}
	if err := cmdAgg(context.Background(), []string{"-quiet", "-by", "rate,rate", in}); err == nil {
		t.Error("agg accepted duplicate dimensions")
	}
}

// TestAggCLIStdin checks the no-args path reads records from stdin.
func TestAggCLIStdin(t *testing.T) {
	jsonl := `{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0,"trials":1,"seed":1,"kernel":"fx-kernels-v9","metrics":{"v":3}}
{"family":"torus","size":"4x4","n":16,"m":32,"measure":"x","model":"iid-node","rate":0,"trials":1,"seed":2,"kernel":"fx-kernels-v9","metrics":{"v":5}}
`
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteString(jsonl); err != nil {
		t.Fatal(err)
	}
	w.Close()
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin = r
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = outW
	aggErr := cmdAgg(context.Background(), []string{"-quiet", "-by", "measure"})
	outW.Close()
	os.Stdin, os.Stdout = oldIn, oldOut
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(outR); err != nil {
		t.Fatal(err)
	}
	if aggErr != nil {
		t.Fatalf("cmdAgg(stdin): %v", aggErr)
	}
	if !strings.Contains(buf.String(), "x,v,2,4,") {
		t.Errorf("stdin aggregation output:\n%s", buf.String())
	}
}

// TestAggRefusesBlankAndTornLinesCLI: agg reads under the record rule
// merge and resume apply, so the run's output with a blank line
// appended, or with its final newline removed, is refused.
func TestAggRefusesBlankAndTornLinesCLI(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	out := readFile(t, full)
	for name, content := range map[string][]byte{
		"blank": append(bytes.Clone(out), '\n'),
		"torn":  bytes.TrimSuffix(out, []byte("\n")),
	} {
		in := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(in, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdAgg(context.Background(), []string{"-quiet", "-csv", filepath.Join(dir, "sum.csv"), in}); err == nil {
			t.Errorf("agg accepted the run's output with a %s last line", name)
		}
	}
}

// TestAggNamesRecordInItsFileCLI: a refused line is named by its index
// in its own input file, not by a count running across the files.
func TestAggNamesRecordInItsFileCLI(t *testing.T) {
	dir := t.TempDir()
	full, bad := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "bad.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("{bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdAgg(context.Background(), []string{"-quiet", "-csv", filepath.Join(dir, "sum.csv"), full, bad})
	if err == nil || !strings.Contains(err.Error(), "bad.jsonl: ") || !strings.Contains(err.Error(), "record 0: ") {
		t.Errorf("agg full.jsonl bad.jsonl: %v, want bad.jsonl's record 0 named", err)
	}
}
