package sweep

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func multiModelSpec() *Spec {
	return &Spec{
		Families: []FamilySpec{
			{Family: "torus", Size: "4x4"},
			{Family: "smallworld", Size: "24x4", K: 5},
			{Family: "gnp", Size: "24x3"},
		},
		Measures: []string{"toy"},
		Models:   []string{ModelIIDNode, ModelIIDEdge},
		Rates:    []float64{0, 0.1, 0.25},
		Trials:   2,
		Seed:     41,
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
		"0/1": {Index: 0, Count: 1},
	}
	for tok, want := range good {
		got, err := ParseShard(tok)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", tok, got, err, want)
		}
	}
	for _, bad := range []string{"", "3", "3/3", "-1/3", "1/0", "a/b", "0/3x", "0 of 3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestShardPartition checks the round-robin split is a disjoint cover of
// the grid: every cell runs on exactly one shard.
func TestShardPartition(t *testing.T) {
	spec := multiModelSpec()
	all := spec.Cells()
	seen := map[uint64]int{}
	const m = 3
	for i := 0; i < m; i++ {
		var buf bytes.Buffer
		sum, err := runSpec(spec, NewJSONL(&buf), WithWorkers(2), WithShard(Shard{Index: i, Count: m}))
		if err != nil {
			t.Fatalf("run(shard %d/%d): %v", i, m, err)
		}
		if want := shardLineCount(len(all), i, m); sum.Cells != want {
			t.Errorf("shard %d/%d ran %d cells, want %d", i, m, sum.Cells, want)
		}
		for _, ln := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var r Result
			if err := json.Unmarshal(ln, &r); err != nil {
				t.Fatalf("shard %d line %q: %v", i, ln, err)
			}
			seen[r.Seed]++
		}
	}
	if len(seen) != len(all) {
		t.Errorf("shards covered %d distinct cells, want %d", len(seen), len(all))
	}
	for seed, n := range seen {
		if n != 1 {
			t.Errorf("cell seed %d ran on %d shards", seed, n)
		}
	}
}

// TestShardMergeByteIdentity is the tentpole guarantee: running a grid
// as m shards and merging the per-shard JSONL streams reproduces the
// unsharded JSONL and CSV byte-for-byte, for several shard counts
// (including m larger than some shards' cell share).
func TestShardMergeByteIdentity(t *testing.T) {
	spec := multiModelSpec()
	var wantJSONL, wantCSV bytes.Buffer
	if _, err := runSpec(spec, MultiWriter{NewJSONL(&wantJSONL), NewCSV(&wantCSV)}, WithWorkers(3)); err != nil {
		t.Fatalf("unsharded Run: %v", err)
	}
	for _, m := range []int{1, 2, 3, 5} {
		shards := make([]bytes.Buffer, m)
		readers := make([]io.Reader, m)
		for i := 0; i < m; i++ {
			if _, err := runSpec(spec, NewJSONL(&shards[i]), WithWorkers(2), WithShard(Shard{Index: i, Count: m})); err != nil {
				t.Fatalf("run(shard %d/%d): %v", i, m, err)
			}
			readers[i] = bytes.NewReader(shards[i].Bytes())
		}
		var gotJSONL, gotCSV bytes.Buffer
		// Merge with spec-backed position verification on: the correct
		// order must pass it.
		n, err := MergeShards(readers, &gotJSONL, NewCSV(&gotCSV), spec)
		if err != nil {
			t.Fatalf("MergeShards(m=%d): %v", m, err)
		}
		if n != len(spec.Cells()) {
			t.Errorf("MergeShards(m=%d) merged %d records, want %d", m, n, len(spec.Cells()))
		}
		if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
			t.Errorf("m=%d: merged JSONL differs from unsharded run:\n--- want ---\n%s\n--- got ---\n%s",
				m, wantJSONL.Bytes(), gotJSONL.Bytes())
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Errorf("m=%d: merged CSV differs from unsharded run", m)
		}
	}
}

// TestMergeShardsPassesCRLFThrough: merge writes every shard line byte
// for byte, its '\r' included, so CRLF shard files merge to the CRLF
// form of the unsharded run rather than to LF lines.
func TestMergeShardsPassesCRLFThrough(t *testing.T) {
	spec := multiModelSpec()
	var whole bytes.Buffer
	if _, err := runSpec(spec, NewJSONL(&whole)); err != nil {
		t.Fatal(err)
	}
	crlf := func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }
	var readers []io.Reader
	for _, out := range mergeFixture(t, 3) {
		readers = append(readers, strings.NewReader(crlf(out)))
	}
	var got bytes.Buffer
	if _, err := MergeShards(readers, &got, nil, spec); err != nil {
		t.Fatal(err)
	}
	if want := crlf(whole.String()); got.String() != want {
		t.Errorf("merge wrote %d bytes for the CRLF shards, want their %d bytes with every '\\r' kept", got.Len(), len(want))
	}
}

// TestMergeShardsRejectsBadInput pins the merge's refusal modes: no
// shards, out-of-order files, and truncated files.
func TestMergeShardsRejectsBadInput(t *testing.T) {
	if _, err := MergeShards(nil, &bytes.Buffer{}, nil, nil); err == nil {
		t.Error("MergeShards with no shards succeeded")
	}
	spec := multiModelSpec()
	const m = 3
	outs := make([]string, m)
	for i := 0; i < m; i++ {
		var buf bytes.Buffer
		if _, err := runSpec(spec, NewJSONL(&buf), WithShard(Shard{Index: i, Count: m})); err != nil {
			t.Fatal(err)
		}
		outs[i] = buf.String()
	}
	// 18 cells split 3 ways is 6/6/6 — swapping files can't be caught by
	// the length profile, but dropping one line can.
	truncated := outs[0][:strings.LastIndex(strings.TrimSpace(outs[0]), "\n")]
	if _, err := MergeShards([]io.Reader{
		strings.NewReader(truncated),
		strings.NewReader(outs[1]),
		strings.NewReader(outs[2]),
	}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Error("MergeShards accepted a truncated shard 0")
	}
	// Equal-length shards in the wrong order slip past the length
	// profile; the spec-backed seed check must catch them.
	swapped := []io.Reader{
		strings.NewReader(outs[1]),
		strings.NewReader(outs[0]),
		strings.NewReader(outs[2]),
	}
	if _, err := MergeShards(swapped, &bytes.Buffer{}, nil, spec); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("MergeShards(swapped equal-length shards, spec) = %v, want out-of-order error", err)
	}
	// A spec for a different grid is also refused.
	other := multiModelSpec()
	other.Seed++
	if _, err := MergeShards([]io.Reader{
		strings.NewReader(outs[0]),
		strings.NewReader(outs[1]),
		strings.NewReader(outs[2]),
	}, &bytes.Buffer{}, nil, other); err == nil {
		t.Error("MergeShards accepted shards against a mismatched spec")
	}
	// An equal-length subset of the shards (user forgot one file) slips
	// past the round-robin profile; the spec's cell count catches it.
	subset := []io.Reader{strings.NewReader(outs[0]), strings.NewReader(outs[1])}
	if _, err := MergeShards(subset, &bytes.Buffer{}, nil, multiModelSpec()); err == nil {
		t.Error("MergeShards(2 of 3 shards, spec) should refuse the incomplete grid")
	}
	// An uneven split (m=4 over 18 cells = 5/5/4/4) catches misordering.
	outs4 := make([]string, 4)
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if _, err := runSpec(spec, NewJSONL(&buf), WithShard(Shard{Index: i, Count: 4})); err != nil {
			t.Fatal(err)
		}
		outs4[i] = buf.String()
	}
	if _, err := MergeShards([]io.Reader{
		strings.NewReader(outs4[2]), // 4 records where 5 are expected
		strings.NewReader(outs4[1]),
		strings.NewReader(outs4[0]),
		strings.NewReader(outs4[3]),
	}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Error("MergeShards accepted shards in the wrong order")
	}
	// Garbage JSON is refused for a structured writer too.
	if _, err := MergeShards([]io.Reader{strings.NewReader("not json\n")}, nil, NewCSV(&bytes.Buffer{}), nil); err == nil {
		t.Error("MergeShards decoded garbage JSONL for the CSV writer")
	}
}

// TestRunRejectsInvalidShard pins the Options-level validation.
func TestRunRejectsInvalidShard(t *testing.T) {
	for _, sh := range []Shard{{Index: 3, Count: 3}, {Index: -1, Count: 2}, {Index: 0, Count: -1}} {
		if _, err := runSpec(multiModelSpec(), NewJSONL(&bytes.Buffer{}), WithShard(sh)); err == nil {
			t.Errorf("Run accepted invalid shard %+v", sh)
		}
	}
}

func TestShardFileNameRoundTrip(t *testing.T) {
	cases := []Shard{
		{Index: 0, Count: 1},
		{Index: 0, Count: 3},
		{Index: 2, Count: 3},
		{Index: 11, Count: 12},
	}
	for _, sh := range cases {
		name := ShardFileName(sh)
		got, ok := ParseShardFileName(name)
		if !ok || got != sh {
			t.Errorf("ParseShardFileName(ShardFileName(%+v)) = %+v, %v", sh, got, ok)
		}
	}
	// The disabled shard (Count 0) still names a canonical single file.
	if name := ShardFileName(Shard{}); name != "shard-0-of-1.jsonl" {
		t.Errorf("ShardFileName(zero) = %q", name)
	}
	for _, bad := range []string{
		"", "shard-0-of-1", "shard-0.jsonl", "shard-1-of-1.jsonl",
		"shard--1-of-2.jsonl", "shard-0-of-0.jsonl", "shard-01-of-2.jsonl",
		"shard-0-of-02.jsonl", "shard-a-of-b.jsonl", "spec.json", "meta.json",
	} {
		if sh, ok := ParseShardFileName(bad); ok {
			t.Errorf("ParseShardFileName(%q) accepted as %+v", bad, sh)
		}
	}
}

func TestShardLineCountExported(t *testing.T) {
	if got := shardLineCount(10, 0, 1); got != 10 {
		t.Errorf("1-way split holds %d lines, want all 10", got)
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += shardLineCount(10, i, 3)
	}
	if total != 10 {
		t.Errorf("3-way split of 10 sums to %d", total)
	}
}

func TestShardFilesDiscovery(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	// Job-store clutter that must be ignored.
	write("spec.json")
	write("meta.json")
	write("cancelled")
	if _, err := ShardFiles(dir); err == nil {
		t.Fatal("empty set accepted")
	}
	write("shard-0-of-3.jsonl")
	write("shard-2-of-3.jsonl")
	if _, err := ShardFiles(dir); err == nil {
		t.Fatal("incomplete set (missing shard 1) accepted")
	}
	write("shard-1-of-3.jsonl")
	paths, err := ShardFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for i, p := range paths {
		want := ShardFileName(Shard{Index: i, Count: 3})
		if filepath.Base(p) != want {
			t.Errorf("paths[%d] = %q, want %q", i, p, want)
		}
	}
	// A second split in the same directory is ambiguous, not mergeable.
	write("shard-0-of-2.jsonl")
	if _, err := ShardFiles(dir); err == nil {
		t.Fatal("mixed 2-way and 3-way splits accepted")
	}
}
