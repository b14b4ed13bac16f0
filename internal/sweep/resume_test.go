package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// resumeRef runs the toy grid to completion and returns the reference
// bytes plus the cell sequence.
func resumeRef(t *testing.T, sh Shard) ([]byte, []Cell) {
	t.Helper()
	spec := toySpec()
	var buf bytes.Buffer
	if _, err := runSpec(spec, NewJSONL(&buf), WithWorkers(2), WithShard(sh)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), toySpec().ShardCells(sh)
}

// cutAt returns the reference output truncated after n complete records,
// optionally with extra partial-line bytes of record n+1 appended (the
// signature of a mid-write kill).
func cutAt(ref []byte, n int, partial int) []byte {
	lines := bytes.SplitAfter(ref, []byte("\n"))
	out := bytes.Join(lines[:n], nil)
	if partial > 0 && n < len(lines) && len(lines[n]) > partial {
		out = append(out, lines[n][:partial]...)
	}
	return out
}

func TestScanResumeCleanPrefix(t *testing.T) {
	ref, cells := resumeRef(t, Shard{})
	for _, n := range []int{0, 1, 5, len(cells)} {
		cut := cutAt(ref, n, 0)
		st, err := ScanResume(bytes.NewReader(cut), cells)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.Done != n || st.Offset != int64(len(cut)) || st.Truncated {
			t.Errorf("n=%d: state %+v, want done=%d offset=%d", n, st, n, len(cut))
		}
	}
}

func TestScanResumeTruncatedLastLine(t *testing.T) {
	ref, cells := resumeRef(t, Shard{})
	cut := cutAt(ref, 4, 25) // 4 complete records + 25 bytes of record 5
	st, err := ScanResume(bytes.NewReader(cut), cells)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 4 || !st.Truncated {
		t.Fatalf("state %+v, want done=4 truncated", st)
	}
	// Offset points at the end of the verified prefix, not the junk.
	if st.Offset != int64(len(cutAt(ref, 4, 0))) {
		t.Errorf("offset %d, want %d", st.Offset, len(cutAt(ref, 4, 0)))
	}
}

func TestScanResumeRefusesMismatches(t *testing.T) {
	ref, cells := resumeRef(t, Shard{})
	// A different grid seed changes every cell seed.
	other := toySpec()
	other.Seed = 1000
	if _, err := ScanResume(bytes.NewReader(ref), other.ShardCells(Shard{})); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Errorf("mismatched seed accepted: %v", err)
	}
	// A different trial budget shares seeds but must still refuse.
	moreTrials := toySpec()
	moreTrials.Trials = 7
	if _, err := ScanResume(bytes.NewReader(ref), moreTrials.ShardCells(Shard{})); err == nil ||
		!strings.Contains(err.Error(), "trial budget") {
		t.Errorf("mismatched trials accepted: %v", err)
	}
	// More records than cells: the file belongs to a bigger grid.
	if _, err := ScanResume(bytes.NewReader(ref), cells[:3]); err == nil ||
		!strings.Contains(err.Error(), "more than") {
		t.Errorf("oversized output accepted: %v", err)
	}
	// Interior corruption is refused, not truncated.
	corrupt := append([]byte("{garbage\n"), ref...)
	if _, err := ScanResume(bytes.NewReader(corrupt), cells); err == nil ||
		!strings.Contains(err.Error(), "malformed") {
		t.Errorf("corrupt interior accepted: %v", err)
	}
	// Resuming a shard's file against the wrong shard sequence refuses.
	shardRef, _ := resumeRef(t, Shard{Index: 1, Count: 3})
	if _, err := ScanResume(bytes.NewReader(shardRef), toySpec().ShardCells(Shard{Index: 0, Count: 3})); err == nil {
		t.Error("shard 1 output accepted against shard 0 sequence")
	}
}

// identityEdits alter one identity field of a record and keep its
// seed, trials and trial block: the records CheckRecord must refuse by
// comparing the fields themselves.
var identityEdits = []struct {
	field string
	edit  func(*Result)
}{
	{"family", func(r *Result) { r.Family = "mesh" }},
	{"size", func(r *Result) { r.Size = "5x5" }},
	{"measure", func(r *Result) { r.Measure = "shatter" }},
	{"model", func(r *Result) { r.Model = ModelIIDEdge }},
	{"rate", func(r *Result) { r.Rate = 0.25 }},
	{"precision", func(r *Result) { r.Precision = "sampled:4" }},
}

// editRecord returns the JSONL stream with record i decoded, edited and
// re-encoded in place.
func editRecord(t *testing.T, stream []byte, i int, edit func(*Result)) []byte {
	t.Helper()
	lines := bytes.SplitAfter(stream, []byte("\n"))
	var r Result
	if err := json.Unmarshal(lines[i], &r); err != nil {
		t.Fatal(err)
	}
	edit(&r)
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	lines[i] = append(b, '\n')
	return bytes.Join(lines, nil)
}

// TestScanResumeRefusesEditedIdentity: a record whose family, size,
// measure, model, rate or precision was edited keeps its cell's seed,
// so only a comparison of the field itself stops resume from counting
// the cell complete.
func TestScanResumeRefusesEditedIdentity(t *testing.T) {
	ref, cells := resumeRef(t, Shard{})
	for _, e := range identityEdits {
		edited := editRecord(t, ref, 0, e.edit)
		if st, err := ScanResume(bytes.NewReader(edited), cells); err == nil {
			t.Errorf("%s edited: resume accepted %d records", e.field, st.Done)
		} else if !strings.Contains(err.Error(), "record 0 has "+e.field) {
			t.Errorf("%s edited: error %q does not name the field", e.field, err)
		}
	}
}

// foreignStamps are kernel stamps of other generations: an older
// one, and none at all (records written before they carried one).
var foreignStamps = []string{"fx-kernels-v8", ""}

// TestScanResumeRefusesOtherKernel: records computed by another kernel
// generation can differ from this binary's in any byte, so a file whose
// leading records carry another stamp, or none, is refused, and the
// error names both stamps.
func TestScanResumeRefusesOtherKernel(t *testing.T) {
	ref, cells := resumeRef(t, Shard{})
	for _, stamp := range foreignStamps {
		old := cutAt(ref, 2, 0)
		for i := 0; i < 2; i++ {
			old = editRecord(t, old, i, func(r *Result) { r.Kernel = stamp })
		}
		st, err := ScanResume(bytes.NewReader(old), cells)
		if err == nil {
			t.Errorf("stamp %q: resume accepted %d records", stamp, st.Done)
			continue
		}
		want := stampName(stamp)
		if !strings.Contains(err.Error(), "record 0 has kernel stamp "+want) || !strings.Contains(err.Error(), KernelVersion) {
			t.Errorf("stamp %q: error %q does not name both stamps", stamp, err)
		}
	}
}

// TestResumeByteIdentity is the acceptance criterion: killing a run at
// any cell boundary (with or without a partial trailing record) and
// resuming with WithSkipCells produces output byte-identical to the
// uninterrupted run — including under sharding.
func TestResumeByteIdentity(t *testing.T) {
	for _, sh := range []Shard{{}, {Index: 0, Count: 3}, {Index: 2, Count: 3}} {
		ref, cells := resumeRef(t, sh)
		for _, cut := range []struct {
			n       int
			partial int
		}{{0, 0}, {1, 0}, {2, 17}, {len(cells) - 1, 9}, {len(cells), 0}} {
			file := cutAt(ref, cut.n, cut.partial)
			st, err := ScanResume(bytes.NewReader(file), cells)
			if err != nil {
				t.Fatalf("shard %v cut %+v: %v", sh, cut, err)
			}
			// Truncate to the verified prefix, then append the remainder.
			resumed := bytes.NewBuffer(append([]byte(nil), file[:st.Offset]...))
			if _, err := runSpec(toySpec(), NewJSONL(resumed), WithWorkers(2), WithShard(sh), WithSkipCells(st.Done)); err != nil {
				t.Fatalf("shard %v cut %+v: resume run: %v", sh, cut, err)
			}
			if !bytes.Equal(resumed.Bytes(), ref) {
				t.Errorf("shard %v cut %+v: resumed output differs from uninterrupted run", sh, cut)
			}
		}
	}
}

func TestRunRejectsBadSkip(t *testing.T) {
	for _, skip := range []int{-1, len(toySpec().Cells()) + 1} {
		var buf bytes.Buffer
		if _, err := runSpec(toySpec(), NewJSONL(&buf), WithSkipCells(skip)); err == nil {
			t.Errorf("SkipCells=%d accepted", skip)
		}
	}
}

func TestPlan(t *testing.T) {
	spec := toySpec()
	p, err := spec.Plan(Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if p.GridCells != 12 || p.RunCells != 12 || p.RunTrials != 36 {
		t.Errorf("plan %+v, want 12 cells / 36 trials", p)
	}
	if len(p.Families) != 3 || p.Families[0] != "torus:4x4" {
		t.Errorf("plan families %v", p.Families)
	}
	sh := Shard{Index: 1, Count: 5}
	ps, err := spec.Plan(sh)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RunCells != 3 || ps.GridCells != 12 {
		t.Errorf("sharded plan %+v, want 3 of 12 cells", ps)
	}
	bad := toySpec()
	bad.Rates = nil
	if _, err := bad.Plan(Shard{}); err == nil {
		t.Error("Plan accepted an invalid spec")
	}
}
