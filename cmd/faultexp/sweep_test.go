package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"faultexp/internal/sweep"
)

// goldenArgs is the grid the golden files were generated with (3
// families × 4 rates, two measures). Worker count varies per invocation
// below — the files must match regardless.
func goldenArgs(dir string, workers string) []string {
	return []string{
		"-families", "mesh:4x4,torus:4x4,hypercube:4",
		"-measures", "gamma,percolation",
		"-model", "iid-node",
		"-rates", "0,0.25,0.5,0.75",
		"-trials", "2",
		"-seed", "42",
		"-workers", workers,
		"-quiet",
		"-jsonl", filepath.Join(dir, "out.jsonl"),
		"-csv", filepath.Join(dir, "out.csv"),
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepGolden runs the full CLI path (flag parsing → spec → engine →
// writers) against checked-in golden output, at several worker counts.
func TestSweepGolden(t *testing.T) {
	wantJSONL := readFile(t, filepath.Join("testdata", "sweep_golden.jsonl"))
	wantCSV := readFile(t, filepath.Join("testdata", "sweep_golden.csv"))
	for _, workers := range []string{"1", "3", "8"} {
		dir := t.TempDir()
		if err := cmdSweep(context.Background(), goldenArgs(dir, workers)); err != nil {
			t.Fatalf("cmdSweep(workers=%s): %v", workers, err)
		}
		if got := readFile(t, filepath.Join(dir, "out.jsonl")); !bytes.Equal(got, wantJSONL) {
			t.Errorf("workers=%s: JSONL differs from golden:\n--- got ---\n%s", workers, got)
		}
		if got := readFile(t, filepath.Join(dir, "out.csv")); !bytes.Equal(got, wantCSV) {
			t.Errorf("workers=%s: CSV differs from golden", workers)
		}
	}

	// The golden files themselves must be valid JSONL / CSV.
	for i, ln := range bytes.Split(bytes.TrimSpace(wantJSONL), []byte("\n")) {
		var r sweep.Result
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatalf("golden JSONL line %d invalid: %v", i+1, err)
		}
		if r.Err != "" {
			t.Fatalf("golden JSONL line %d carries an error: %s", i+1, r.Err)
		}
	}
	rows, err := csv.NewReader(bytes.NewReader(wantCSV)).ReadAll()
	if err != nil {
		t.Fatalf("golden CSV invalid: %v", err)
	}
	if len(rows) < 2 || len(rows[0]) != 11 {
		t.Fatalf("golden CSV shape: %d rows × %d cols", len(rows), len(rows[0]))
	}
}

// TestSweepSpecFile checks that the same grid expressed as a JSON spec
// file produces byte-identical output to the flag form.
func TestSweepSpecFile(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	specJSON := `{
	  "families": [
	    {"family": "mesh", "size": "4x4"},
	    {"family": "torus", "size": "4x4"},
	    {"family": "hypercube", "size": "4"}
	  ],
	  "measures": ["gamma", "percolation"],
	  "model": "iid-node",
	  "rates": [0, 0.25, 0.5, 0.75],
	  "trials": 2,
	  "seed": 42
	}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-spec", specPath,
		"-workers", "2",
		"-quiet",
		"-jsonl", filepath.Join(dir, "out.jsonl"),
		"-csv", filepath.Join(dir, "out.csv"),
	}
	if err := cmdSweep(context.Background(), args); err != nil {
		t.Fatalf("cmdSweep(-spec): %v", err)
	}
	wantJSONL := readFile(t, filepath.Join("testdata", "sweep_golden.jsonl"))
	if got := readFile(t, filepath.Join(dir, "out.jsonl")); !bytes.Equal(got, wantJSONL) {
		t.Errorf("-spec JSONL differs from golden")
	}
	wantCSV := readFile(t, filepath.Join("testdata", "sweep_golden.csv"))
	if got := readFile(t, filepath.Join(dir, "out.csv")); !bytes.Equal(got, wantCSV) {
		t.Errorf("-spec CSV differs from golden")
	}
}

// TestSweepShardMergeCLI drives the full sharded workflow through the
// CLI: the golden grid run as 3 shards plus `faultexp merge` must
// reproduce the checked-in unsharded golden files byte-for-byte, for
// both JSONL and CSV.
func TestSweepShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	shardPaths := make([]string, 3)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, "s"+string(rune('0'+i))+".jsonl")
		args := []string{
			"-families", "mesh:4x4,torus:4x4,hypercube:4",
			"-measures", "gamma,percolation",
			"-model", "iid-node",
			"-rates", "0,0.25,0.5,0.75",
			"-trials", "2",
			"-seed", "42",
			"-quiet",
			"-shard", string(rune('0'+i)) + "/3",
			"-jsonl", shardPaths[i],
		}
		if err := cmdSweep(context.Background(), args); err != nil {
			t.Fatalf("cmdSweep(shard %d/3): %v", i, err)
		}
	}
	mergedJSONL := filepath.Join(dir, "merged.jsonl")
	mergedCSV := filepath.Join(dir, "merged.csv")
	margs := append([]string{"-quiet", "-jsonl", mergedJSONL, "-csv", mergedCSV}, shardPaths...)
	if err := cmdMerge(context.Background(), margs); err != nil {
		t.Fatalf("cmdMerge: %v", err)
	}
	if got, want := readFile(t, mergedJSONL), readFile(t, filepath.Join("testdata", "sweep_golden.jsonl")); !bytes.Equal(got, want) {
		t.Errorf("merged JSONL differs from unsharded golden:\n--- got ---\n%s", got)
	}
	if got, want := readFile(t, mergedCSV), readFile(t, filepath.Join("testdata", "sweep_golden.csv")); !bytes.Equal(got, want) {
		t.Errorf("merged CSV differs from unsharded golden")
	}
	// Merge refuses a wrong shard count / order profile when lengths
	// make it detectable, and always refuses zero shard files.
	if err := cmdMerge(context.Background(), []string{"-quiet", "-jsonl", filepath.Join(dir, "x.jsonl")}); err == nil {
		t.Error("cmdMerge with no shard files succeeded")
	}
	// With -spec, a wrong shard order is caught even when the length
	// profile is inconclusive (24 cells split 3 ways is 8/8/8).
	specPath := filepath.Join(dir, "grid.json")
	specJSON := `{"families":[{"family":"mesh","size":"4x4"},{"family":"torus","size":"4x4"},
	  {"family":"hypercube","size":"4"}],"measures":["gamma","percolation"],
	  "model":"iid-node","rates":[0,0.25,0.5,0.75],"trials":2,"seed":42}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	goodOrder := append([]string{"-quiet", "-spec", specPath, "-jsonl", filepath.Join(dir, "v.jsonl")}, shardPaths...)
	if err := cmdMerge(context.Background(), goodOrder); err != nil {
		t.Errorf("cmdMerge(-spec, correct order): %v", err)
	}
	badOrder := []string{"-quiet", "-spec", specPath, "-jsonl", filepath.Join(dir, "b.jsonl"),
		shardPaths[1], shardPaths[0], shardPaths[2]}
	if err := cmdMerge(context.Background(), badOrder); err == nil {
		t.Error("cmdMerge(-spec) accepted equal-length shards in the wrong order")
	}
}

// TestSweepMultiModelCLI checks -models expands the model axis and that
// -model/-models conflict is rejected.
func TestSweepMultiModelCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	args := []string{
		"-families", "torus:4x4",
		"-measures", "gamma",
		"-models", "iid-node,iid-edge",
		"-rates", "0,0.5",
		"-trials", "1",
		"-seed", "1",
		"-quiet",
		"-jsonl", out,
	}
	if err := cmdSweep(context.Background(), args); err != nil {
		t.Fatalf("cmdSweep(-models): %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(readFile(t, out)), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d records, want 4 (1 family × 1 measure × 2 models × 2 rates)", len(lines))
	}
	models := map[string]int{}
	for _, ln := range lines {
		var r sweep.Result
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatal(err)
		}
		models[r.Model]++
	}
	if models["iid-node"] != 2 || models["iid-edge"] != 2 {
		t.Errorf("model counts %v, want 2 each", models)
	}
	conflict := []string{"-families", "torus:4x4", "-rates", "0", "-model", "iid-node", "-models", "iid-edge", "-quiet", "-jsonl", filepath.Join(dir, "c.jsonl")}
	if err := cmdSweep(context.Background(), conflict); err == nil {
		t.Error("cmdSweep accepted both -model and -models")
	}
}

// TestSweepFlagErrors pins the user-facing failure modes.
func TestSweepFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-rates", "0,0.1", "-quiet"},                                         // no families
		{"-families", "torus:4x4", "-quiet"},                                  // no rates
		{"-families", "nosuch:4x4", "-rates", "0", "-quiet"},                  // unknown family
		{"-families", "torus:4x4", "-rates", "2", "-quiet"},                   // rate out of range
		{"-families", "torus:4x4", "-rates", "0", "-measures", "x", "-quiet"}, // unknown measure
		{"-spec", filepath.Join(t.TempDir(), "missing.json"), "-quiet"},       // missing spec file
		{"-families", "torus:4x4:3", "-rates", "0", "-quiet"},                 // :k on a family without k
		{"-families", "torus:4x4", "-rates", "0", "-models", "x", "-quiet"},   // unknown model
		{"-families", "torus:4x4", "-rates", "0", "-shard", "3/3", "-quiet"},  // shard out of range
		{"-families", "torus:4x4", "-rates", "0", "-shard", "1of3", "-quiet"}, // malformed shard
		{"-families", "torus:4x4", "-rates", "0", "-workers", "-1", "-quiet"}, // negative workers
	}
	for _, args := range cases {
		args = append(args, "-jsonl", filepath.Join(t.TempDir(), "out.jsonl"))
		if err := cmdSweep(context.Background(), args); err == nil {
			t.Errorf("cmdSweep(%v) succeeded, want error", args)
		}
	}
}

// resumeGridArgs is a small grid used by the resume/dry-run CLI tests.
func resumeGridArgs(extra ...string) []string {
	base := []string{
		"-families", "torus:4x4,hypercube:4",
		"-measures", "gamma",
		"-model", "iid-node",
		"-rates", "0,0.25,0.5",
		"-trials", "2",
		"-seed", "11",
		"-quiet",
	}
	return append(base, extra...)
}

// TestSweepResumeCLI drives the full resume workflow: a run killed at a
// cell boundary (with a partial trailing record) is resumed and the
// result is byte-identical to the uninterrupted run.
func TestSweepResumeCLI(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, full)
	lines := bytes.SplitAfter(want, []byte("\n"))
	for _, cut := range []struct {
		name    string
		content []byte
	}{
		{"empty", nil},
		{"two-cells", bytes.Join(lines[:2], nil)},
		{"partial-line", append(append([]byte{}, bytes.Join(lines[:3], nil)...), lines[3][:20]...)},
		{"complete", want},
	} {
		t.Run(cut.name, func(t *testing.T) {
			resumed := filepath.Join(t.TempDir(), "out.jsonl")
			if cut.content != nil {
				if err := os.WriteFile(resumed, cut.content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := cmdSweep(context.Background(), resumeGridArgs("-resume", resumed)); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := readFile(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("resumed output differs from uninterrupted run:\n--- got ---\n%s", got)
			}
		})
	}
}

// TestSweepResumeShardCLI: resume composes with -shard — each shard's
// file resumes independently and the merge still reproduces the
// unsharded bytes.
func TestSweepResumeShardCLI(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	shardPaths := make([]string, 2)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, "s"+string(rune('0'+i))+".jsonl")
		sh := string(rune('0'+i)) + "/2"
		// First pass: run the shard fully, then truncate to one record.
		if err := cmdSweep(context.Background(), resumeGridArgs("-shard", sh, "-jsonl", shardPaths[i])); err != nil {
			t.Fatal(err)
		}
		b := readFile(t, shardPaths[i])
		cut := bytes.SplitAfter(b, []byte("\n"))[0]
		if err := os.WriteFile(shardPaths[i], cut, 0o644); err != nil {
			t.Fatal(err)
		}
		// Resume the shard.
		if err := cmdSweep(context.Background(), resumeGridArgs("-shard", sh, "-resume", shardPaths[i])); err != nil {
			t.Fatalf("resume shard %d: %v", i, err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if err := cmdMerge(context.Background(), append([]string{"-quiet", "-jsonl", merged}, shardPaths...)); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, merged); !bytes.Equal(got, readFile(t, full)) {
		t.Errorf("merged resumed shards differ from unsharded run")
	}
}

// TestSweepResumeRefusals pins the user-facing refusal modes.
func TestSweepResumeRefusals(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", out)); err != nil {
		t.Fatal(err)
	}
	// A different grid seed must refuse.
	mismatch := []string{
		"-families", "torus:4x4,hypercube:4", "-measures", "gamma",
		"-model", "iid-node", "-rates", "0,0.25,0.5", "-trials", "2",
		"-seed", "999", "-quiet", "-resume", out,
	}
	if err := cmdSweep(context.Background(), mismatch); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("mismatched spec resume = %v, want refusal", err)
	}
	// -csv and a conflicting -jsonl are rejected up front.
	if err := cmdSweep(context.Background(), resumeGridArgs("-resume", out, "-csv", filepath.Join(dir, "x.csv"))); err == nil {
		t.Error("-resume with -csv accepted")
	}
	if err := cmdSweep(context.Background(), resumeGridArgs("-resume", out, "-jsonl", filepath.Join(dir, "other.jsonl"))); err == nil {
		t.Error("-resume with conflicting -jsonl accepted")
	}
	// Interior corruption refuses.
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte("{junk}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep(context.Background(), resumeGridArgs("-resume", corrupt)); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("corrupt resume = %v, want malformed error", err)
	}
}

// TestSweepResumeRefusesOtherKernel: a -resume file whose leading
// records were computed by another kernel generation, or carry no
// stamp, must make the run exit non-zero and leave the file untouched,
// not append this binary's records after them.
func TestSweepResumeRefusesOtherKernel(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(readFile(t, full), []byte("\n"))
	for _, stamp := range []string{"fx-kernels-v8", ""} {
		var old []byte
		for _, ln := range lines[:2] {
			var rec map[string]any
			dec := json.NewDecoder(bytes.NewReader(ln))
			dec.UseNumber() // keep the 64-bit seed exact
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			delete(rec, "kernel")
			if stamp != "" {
				rec["kernel"] = stamp
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			old = append(append(old, b...), '\n')
		}
		path := filepath.Join(dir, "old.jsonl")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		err := cmdSweep(context.Background(), resumeGridArgs("-resume", path))
		if err == nil || !strings.Contains(err.Error(), "kernel stamp") || !strings.Contains(err.Error(), sweep.KernelVersion) {
			t.Errorf("resume of records stamped %q = %v, want a refusal naming both stamps", stamp, err)
		}
		if got := readFile(t, path); !bytes.Equal(got, old) {
			t.Errorf("refused resume of records stamped %q changed the file:\n%s", stamp, got)
		}
	}
}

// TestSweepDryRun pins the -dry-run plan output and that it executes
// nothing.
func TestSweepDryRun(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := cmdSweep(context.Background(), resumeGridArgs("-shard", "0/2", "-dry-run"))
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("dry run: %v", runErr)
	}
	s := string(out)
	for _, want := range []string{
		"grid expands to 6 cells (12 trials total)",
		"shard 0/2 runs 3 cells (6 trials)",
		"families to build (2):",
		"torus:4x4",
		"hypercube:4",
		"peak~",
		"cost~",
		"fits",
		"measures (1): gamma",
		"models (1): iid-node",
		"rates (3): 0, 0.25, 0.5",
		"trials/cell: 2  seed: 11",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("dry-run output missing %q:\n%s", want, s)
		}
	}
	// A dry run with an invalid grid still fails validation.
	if err := cmdSweep(context.Background(), []string{"-families", "torus:4x4", "-rates", "0", "-measures", "nope", "-dry-run", "-quiet"}); err == nil {
		t.Error("dry run validated an unknown measure")
	}
}

// TestSweepTrialParallelCLI drives the -trial-parallel / -trial-block
// flags end to end: byte identity across worker counts, the trial_block
// field on every record, composition with -spec, the dry-run plan line,
// and the flag-validation refusals.
func TestSweepTrialParallelCLI(t *testing.T) {
	tpArgs := func(dir, workers string) []string {
		return []string{
			"-families", "torus:4x4,hypercube:4",
			"-measures", "gamma",
			"-model", "iid-node",
			"-rates", "0,0.25",
			"-trials", "10",
			"-seed", "11",
			"-trial-parallel",
			"-trial-block", "3",
			"-workers", workers,
			"-quiet",
			"-jsonl", filepath.Join(dir, "out.jsonl"),
		}
	}
	refDir := t.TempDir()
	if err := cmdSweep(context.Background(), tpArgs(refDir, "1")); err != nil {
		t.Fatal(err)
	}
	ref := readFile(t, filepath.Join(refDir, "out.jsonl"))
	for _, workers := range []string{"2", "8"} {
		dir := t.TempDir()
		if err := cmdSweep(context.Background(), tpArgs(dir, workers)); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		if got := readFile(t, filepath.Join(dir, "out.jsonl")); !bytes.Equal(got, ref) {
			t.Errorf("workers=%s: trial-parallel output differs from workers=1", workers)
		}
	}
	for i, ln := range bytes.Split(bytes.TrimSpace(ref), []byte("\n")) {
		var r sweep.Result
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatal(err)
		}
		if r.TrialBlock != 3 {
			t.Errorf("record %d trial_block = %d, want 3", i, r.TrialBlock)
		}
	}

	// The flags compose with -spec (override-then-revalidate), and the
	// result matches the flag form byte for byte.
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	specJSON := `{
	  "families": [
	    {"family": "torus", "size": "4x4"},
	    {"family": "hypercube", "size": "4"}
	  ],
	  "measures": ["gamma"],
	  "model": "iid-node",
	  "rates": [0, 0.25],
	  "trials": 10,
	  "seed": 11
	}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep(context.Background(), []string{
		"-spec", specPath, "-trial-parallel", "-trial-block", "3",
		"-workers", "4", "-quiet", "-jsonl", filepath.Join(dir, "out.jsonl"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dir, "out.jsonl")); !bytes.Equal(got, ref) {
		t.Error("-spec + -trial-parallel output differs from the flag form")
	}

	// Dry run announces the block partition.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := cmdSweep(context.Background(), append(tpArgs(t.TempDir(), "1"), "-dry-run"))
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("dry run: %v", runErr)
	}
	if !strings.Contains(string(out), "trial-parallel: blocks of 3 trials") {
		t.Errorf("dry-run output missing the trial-parallel plan line:\n%s", out)
	}

	// Refusals: -trial-block without -trial-parallel, coupled rate mode,
	// and an unknown measure.
	for _, bad := range [][]string{
		{"-families", "torus:4x4", "-rates", "0", "-trial-block", "4", "-quiet"},
		{"-families", "torus:4x4", "-rates", "0,0.1", "-measures", "percolation", "-rate-mode", "coupled", "-trial-parallel", "-quiet"},
		{"-families", "torus:4x4", "-rates", "0", "-measures", "adversarial", "-trial-parallel", "-quiet"},
	} {
		bad = append(bad, "-jsonl", filepath.Join(t.TempDir(), "out.jsonl"))
		if err := cmdSweep(context.Background(), bad); err == nil {
			t.Errorf("cmdSweep(%v) succeeded, want error", bad)
		}
	}
}

// TestSweepCacheCLI drives -cache end to end: a cold run fills the
// cache and matches the uncached golden bytes, a warm run answers
// entirely from it (byte-identical again), and -dry-run -cache prints
// the per-cell cached column with the summary count line.
func TestSweepCacheCLI(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	golden := filepath.Join(dir, "golden.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", golden)); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, golden)

	cold := filepath.Join(dir, "cold.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", cold, "-cache", cacheDir)); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, cold); !bytes.Equal(got, want) {
		t.Errorf("cold cached run differs from uncached run:\n--- got ---\n%s", got)
	}

	warm := filepath.Join(dir, "warm.jsonl")
	if err := cmdSweep(context.Background(), resumeGridArgs("-jsonl", warm, "-cache", cacheDir)); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm cached run differs from cold run:\n--- got ---\n%s", got)
	}

	// Dry-run planning view: per-cell cached column + summary line.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := cmdSweep(context.Background(), resumeGridArgs("-dry-run", "-cache", cacheDir))
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("dry run with cache: %v", runErr)
	}
	s := string(out)
	for _, wantLine := range []string{
		"cells (6):",
		"cached",
		"6/6 cells cached",
	} {
		if !strings.Contains(s, wantLine) {
			t.Errorf("cached dry-run output missing %q:\n%s", wantLine, s)
		}
	}

	// A fresh cache dir: the same plan reports zero cached cells.
	r2, w2, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w2
	runErr = cmdSweep(context.Background(), resumeGridArgs("-dry-run", "-cache", filepath.Join(dir, "empty-cache")))
	w2.Close()
	os.Stdout = old
	out2, _ := io.ReadAll(r2)
	if runErr != nil {
		t.Fatalf("dry run with empty cache: %v", runErr)
	}
	if !strings.Contains(string(out2), "0/6 cells cached") {
		t.Errorf("empty-cache dry run missing \"0/6 cells cached\":\n%s", out2)
	}
}

// TestMergeDirCLI: `faultexp merge -dir` discovers a complete
// shard-<i>-of-<m>.jsonl set — the durable job store layout — and
// merges it to the unsharded golden bytes without listing files.
func TestMergeDirCLI(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		args := []string{
			"-families", "mesh:4x4,torus:4x4,hypercube:4",
			"-measures", "gamma,percolation",
			"-model", "iid-node",
			"-rates", "0,0.25,0.5,0.75",
			"-trials", "2",
			"-seed", "42",
			"-quiet",
			"-shard", fmt.Sprintf("%d/3", i),
			"-jsonl", filepath.Join(dir, fmt.Sprintf("shard-%d-of-3.jsonl", i)),
		}
		if err := cmdSweep(context.Background(), args); err != nil {
			t.Fatalf("cmdSweep(shard %d/3): %v", i, err)
		}
	}
	// Job-store clutter must not confuse the discovery.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if err := cmdMerge(context.Background(), []string{"-quiet", "-dir", dir, "-jsonl", merged}); err != nil {
		t.Fatalf("cmdMerge -dir: %v", err)
	}
	if got, want := readFile(t, merged), readFile(t, filepath.Join("testdata", "sweep_golden.jsonl")); !bytes.Equal(got, want) {
		t.Errorf("merge -dir differs from unsharded golden")
	}
	// -dir and positional shard files are mutually exclusive.
	if err := cmdMerge(context.Background(), []string{"-quiet", "-dir", dir,
		filepath.Join(dir, "shard-0-of-3.jsonl")}); err == nil {
		t.Error("cmdMerge accepted -dir plus positional shard files")
	}
	// An incomplete set is refused, not silently part-merged.
	if err := os.Remove(filepath.Join(dir, "shard-1-of-3.jsonl")); err != nil {
		t.Fatal(err)
	}
	if err := cmdMerge(context.Background(), []string{"-quiet", "-dir", dir, "-jsonl", filepath.Join(dir, "x.jsonl")}); err == nil {
		t.Error("cmdMerge -dir accepted an incomplete shard set")
	}
}

// TestMergeRefusesTornShardCLI: a shard file whose final newline is
// missing ends in a torn tail, even though that tail decodes. Resume
// truncates it and re-runs its cell back to the shard's bytes; merge
// cannot re-run it, so it refuses the file.
func TestMergeRefusesTornShardCLI(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-families", "torus:4x4", "-measures", "gamma", "-model", "iid-node",
		"-rates", "0,0.5", "-trials", "2", "-seed", "3", "-quiet"}
	shards := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for i, path := range shards {
		if err := cmdSweep(context.Background(), slices.Concat(grid, []string{"-shard", fmt.Sprintf("%d/2", i), "-jsonl", path})); err != nil {
			t.Fatal(err)
		}
	}
	whole := readFile(t, shards[0])
	if err := os.WriteFile(shards[0], bytes.TrimSuffix(whole, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdMerge(context.Background(), slices.Concat([]string{"-quiet", "-jsonl", filepath.Join(dir, "m.jsonl")}, shards))
	if !errors.Is(err, sweep.ErrTorn) {
		t.Errorf("merge of a shard without its final newline: %v, want a torn-tail refusal", err)
	}
	if err := cmdSweep(context.Background(), slices.Concat(grid, []string{"-shard", "0/2", "-resume", shards[0]})); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, shards[0]); !bytes.Equal(got, whole) {
		t.Errorf("resume left the torn shard as\n%s\nwant\n%s", got, whole)
	}
}
