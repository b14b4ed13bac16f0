package sweep

// Error-path coverage for MergeShards beyond the ordering/profile cases
// in shard_test.go: a missing shard file, a blank line or a duplicated
// record inside a shard, shards run with another trial budget or block partition than
// the spec, and a shard truncated mid-record (a torn write), with and
// without a spec — each must be refused with a diagnostic, not merged
// into silently-wrong output.

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// mergeFixture runs the multi-model grid as m shards and returns the
// per-shard JSONL strings.
func mergeFixture(t *testing.T, m int) []string {
	t.Helper()
	spec := multiModelSpec()
	outs := make([]string, m)
	for i := 0; i < m; i++ {
		var buf bytes.Buffer
		if _, err := runSpec(spec, NewJSONL(&buf), WithShard(Shard{Index: i, Count: m})); err != nil {
			t.Fatalf("run(shard %d/%d): %v", i, m, err)
		}
		outs[i] = buf.String()
	}
	return outs
}

func mergeStrings(shards []string, spec *Spec) (int, error) {
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = strings.NewReader(s)
	}
	return MergeShards(readers, &bytes.Buffer{}, nil, spec)
}

// TestMergeShardsMissingShard: the user forgot a shard file. With the
// spec every surviving arrangement is caught — by the seed check when
// the gap shifts cell positions, by the cell-count check when it does
// not.
func TestMergeShardsMissingShard(t *testing.T) {
	outs := mergeFixture(t, 3) // 18 cells → 6/6/6
	spec := multiModelSpec()
	// Middle shard missing: records 1, 4, 7, … are absent, so the very
	// second merged record sits at the wrong cell — seed check fires.
	if _, err := mergeStrings([]string{outs[0], outs[2]}, spec); err == nil {
		t.Error("merge accepted shards 0 and 2 of 3 (middle shard missing)")
	} else if !strings.Contains(err.Error(), "seed") {
		t.Errorf("missing-middle error %q does not mention the seed mismatch", err)
	}
	// Trailing shard missing: the interleave of 0 and 1 happens to visit
	// cells in an order whose prefix may pass the seed check only until
	// the first absent cell; whatever the cut, the merge must not
	// succeed.
	if _, err := mergeStrings([]string{outs[0], outs[1]}, spec); err == nil {
		t.Error("merge accepted shards 0 and 1 of 3 (last shard missing)")
	}
	// Without a spec an equal-length subset is undetectable by design —
	// the README documents the gap and cmdMerge hints at -spec. Pin the
	// gap so a future profile change that closes it updates the docs.
	if _, err := mergeStrings([]string{outs[0], outs[1]}, nil); err != nil {
		t.Errorf("spec-less merge of an equal-length subset unexpectedly failed (%v) — update the -spec guidance if the profile now catches this", err)
	}
}

// TestMergeShardsRefusesBlankLine: a blank line in a shard file is
// refused as ScanResume refuses it, with and without the spec, whether
// it trails the last record (one newline appended to a shard run's
// output) or sits between two records.
func TestMergeShardsRefusesBlankLine(t *testing.T) {
	outs := mergeFixture(t, 3)
	first, rest, _ := strings.Cut(outs[1], "\n")
	for name, shards := range map[string][]string{
		"trailing": {outs[0] + "\n", outs[1], outs[2]},
		"interior": {outs[0], first + "\n\n" + rest, outs[2]},
	} {
		for _, spec := range []*Spec{nil, multiModelSpec()} {
			if n, err := mergeStrings(shards, spec); err == nil {
				t.Errorf("%s blank line (spec %v): merge accepted it and wrote %d records", name, spec != nil, n)
			}
		}
	}
}

// TestMergeShardsNamesRecordInShard: a refused line is named by its
// position in its own shard file, counted from 0 as resume counts it,
// not by the merged output's count; a record refused at its cell also
// keeps the merged cell index.
func TestMergeShardsNamesRecordInShard(t *testing.T) {
	outs := mergeFixture(t, 3)
	first, rest, _ := strings.Cut(outs[0], "\n")
	blank := []string{first + "\n\n" + rest, outs[1], outs[2]}
	for _, spec := range []*Spec{nil, multiModelSpec()} {
		_, err := mergeStrings(blank, spec)
		if err == nil || !strings.Contains(err.Error(), "shard 0 record 1:") {
			t.Errorf("blank second line of shard 0 (spec %v): error %v, want it named shard 0 record 1", spec != nil, err)
		}
	}
	// Shard 1's first record repeated as its second: merged cell 4.
	lines := strings.SplitAfter(outs[1], "\n")
	dup := []string{outs[0], lines[0] + outs[1], outs[2]}
	if _, err := mergeStrings(dup, multiModelSpec()); err == nil || !strings.Contains(err.Error(), "record 4 (shard 1 record 1) ") {
		t.Errorf("repeated record at shard 1 record 1: error %v, want it named record 4 (shard 1 record 1)", err)
	}
}

// TestMergeShardsDuplicateRecord: a record pasted twice into a shard
// file (a botched manual repair) shifts every later record off its cell.
func TestMergeShardsDuplicateRecord(t *testing.T) {
	outs := mergeFixture(t, 3)
	spec := multiModelSpec()
	lines := strings.SplitAfter(outs[1], "\n")
	dup := lines[0] + outs[1] // first record duplicated in place
	if _, err := mergeStrings([]string{outs[0], dup, outs[2]}, spec); err == nil {
		t.Error("merge accepted a shard with a duplicated record")
	} else if !strings.Contains(err.Error(), "seed") && !strings.Contains(err.Error(), "more records") {
		t.Errorf("duplicate-record error %q mentions neither seed nor count", err)
	}
	// The duplicate also breaks the 6/6/6 length profile (7/6/6 is
	// non-increasing, but the total exceeds the spec's cell count), so
	// even a duplicate of the *last* record — which keeps every earlier
	// seed aligned — is refused.
	dupLast := outs[1] + lines[len(lines)-2]
	if _, err := mergeStrings([]string{outs[0], dupLast, outs[2]}, spec); err == nil {
		t.Error("merge accepted a shard with its final record duplicated")
	}
}

// TestMergeShardsRefusesTrialAndBlockMismatch: shards run with another
// trial budget or block partition keep every cell seed, so the seed
// check alone passes them; the spec-backed merge must refuse both, with
// the same diagnostics as resume.
func TestMergeShardsRefusesTrialAndBlockMismatch(t *testing.T) {
	outs := mergeFixture(t, 3) // multiModelSpec: 2 trials, serial
	moreTrials := multiModelSpec()
	moreTrials.Trials = 3
	if _, err := mergeStrings(outs, moreTrials); err == nil || !strings.Contains(err.Error(), "trial budget") {
		t.Errorf("2-trial shards merged against a 3-trial spec: %v", err)
	}

	blocked := multiModelSpec()
	blocked.TrialParallel = true
	blocked.TrialBlock = 1
	blockedOuts := make([]string, 3)
	for i := range blockedOuts {
		var buf bytes.Buffer
		if _, err := runSpec(blocked, NewJSONL(&buf), WithShard(Shard{Index: i, Count: 3})); err != nil {
			t.Fatalf("run(blocked shard %d/3): %v", i, err)
		}
		blockedOuts[i] = buf.String()
	}
	if _, err := mergeStrings(blockedOuts, multiModelSpec()); err == nil || !strings.Contains(err.Error(), "do not splice") {
		t.Errorf("trial_block 1 shards merged against a serial spec: %v", err)
	}
	if _, err := mergeStrings(outs, blocked); err == nil || !strings.Contains(err.Error(), "do not splice") {
		t.Errorf("serial shards merged against a trial_block 1 spec: %v", err)
	}
}

// TestMergeShardsRefusesEditedIdentity: a shard record whose identity
// field was edited, seed kept, is refused by the spec-backed merge.
func TestMergeShardsRefusesEditedIdentity(t *testing.T) {
	outs := mergeFixture(t, 3)
	spec := multiModelSpec()
	for _, e := range identityEdits {
		edited := append([]string(nil), outs...)
		edited[1] = string(editRecord(t, []byte(outs[1]), 2, e.edit))
		if n, err := mergeStrings(edited, spec); err == nil {
			t.Errorf("%s edited: merge wrote %d records", e.field, n)
		} else if !strings.Contains(err.Error(), "has "+e.field) {
			t.Errorf("%s edited: error %q does not name the field", e.field, err)
		}
	}
}

// TestMergeShardsRefusesMixedKernels: shards of two kernel
// generations never merge. With the spec, a record with another stamp
// fails CheckRecord; without it, every record must carry the first
// record's stamp. Shards that all carry one foreign stamp still merge
// without the spec.
func TestMergeShardsRefusesMixedKernels(t *testing.T) {
	outs := mergeFixture(t, 3)
	spec := multiModelSpec()
	for _, stamp := range foreignStamps {
		mixed := append([]string(nil), outs...)
		mixed[1] = string(editRecord(t, []byte(outs[1]), 2, func(r *Result) { r.Kernel = stamp }))
		for _, sp := range []*Spec{spec, nil} {
			if n, err := mergeStrings(mixed, sp); err == nil {
				t.Errorf("stamp %q (spec %v): merge wrote %d records", stamp, sp != nil, n)
			} else if !strings.Contains(err.Error(), "record 7 (shard 1 record 2) has kernel stamp "+stampName(stamp)) {
				t.Errorf("stamp %q (spec %v): error %q does not name the record and its stamp", stamp, sp != nil, err)
			}
		}
		all := append([]string(nil), outs...)
		for i := range all {
			for k := 0; k < strings.Count(all[i], "\n"); k++ {
				all[i] = string(editRecord(t, []byte(all[i]), k, func(r *Result) { r.Kernel = stamp }))
			}
		}
		if _, err := mergeStrings(all, nil); err != nil {
			t.Errorf("stamp %q on every record: merge without spec refused: %v", stamp, err)
		}
		if _, err := mergeStrings(all, spec); err == nil {
			t.Errorf("stamp %q on every record: merge with spec accepted", stamp)
		}
	}
}

// TestMergeShardsTruncatedMidRecord: a shard whose final line was torn
// mid-write (no trailing newline, half a JSON object). The spec-backed
// merge refuses it at the decode; the torn line must never reach the
// merged output as if it were a record.
func TestMergeShardsTruncatedMidRecord(t *testing.T) {
	outs := mergeFixture(t, 3)
	spec := multiModelSpec()
	cut := strings.TrimSuffix(outs[1], "\n")
	cut = cut[:len(cut)-25] // tear the last record's tail off
	if _, err := mergeStrings([]string{outs[0], cut, outs[2]}, spec); err == nil {
		t.Error("merge accepted a shard torn mid-record")
	}
	// Same tear, structured writer but no spec: the decode still fails.
	readers := []io.Reader{
		strings.NewReader(outs[0]),
		strings.NewReader(cut),
		strings.NewReader(outs[2]),
	}
	if _, err := MergeShards(readers, nil, NewCSV(&bytes.Buffer{}), nil); err == nil {
		t.Error("merge decoded a torn record for the CSV writer")
	}
	// Tearing a whole final line off (newline and all) reduces the
	// shard's count — the round-robin profile refuses even without a
	// spec (covered more broadly in TestMergeShardsRejectsBadInput).
	whole := strings.TrimSpace(outs[1])
	whole = whole[:strings.LastIndex(whole, "\n")+1]
	if _, err := mergeStrings([]string{outs[0], whole, outs[2]}, nil); err == nil {
		t.Error("merge accepted a shard missing its final record")
	}
}

// TestMergeShardsRefusesTornRecordWithoutSpec: a killed `sweep -shard`
// run leaves a torn final line. A merge with only a JSONL destination —
// no spec, no structured writer — must refuse it rather than copy it
// through as a record, and must still merge the intact shards
// byte-identical to the unsharded run.
func TestMergeShardsRefusesTornRecordWithoutSpec(t *testing.T) {
	spec := toySpec()
	spec.Families = spec.Families[:1] // 4 cells: shards 0/2 and 1/2 hold 2 each
	var whole bytes.Buffer
	if _, err := runSpec(spec, NewJSONL(&whole)); err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	outs := make([]string, 2)
	for i := range outs {
		var buf bytes.Buffer
		if _, err := runSpec(spec, NewJSONL(&buf), WithShard(Shard{Index: i, Count: 2})); err != nil {
			t.Fatalf("run(shard %d/2): %v", i, err)
		}
		outs[i] = buf.String()
	}
	first, second, _ := strings.Cut(outs[0], "\n")
	torn := first + "\n" + second[:50]
	var got bytes.Buffer
	if n, err := MergeShards([]io.Reader{strings.NewReader(torn), strings.NewReader(outs[1])}, &got, nil, nil); err == nil {
		t.Fatalf("merge accepted a torn record: %d records\n%s", n, got.Bytes())
	}
	got.Reset()
	if _, err := MergeShards([]io.Reader{strings.NewReader(outs[0]), strings.NewReader(outs[1])}, &got, nil, nil); err != nil {
		t.Fatalf("merge of intact shards: %v", err)
	}
	if !bytes.Equal(got.Bytes(), whole.Bytes()) {
		t.Errorf("JSONL-only merge differs from the unsharded run:\n got %s\nwant %s", got.Bytes(), whole.Bytes())
	}
}
