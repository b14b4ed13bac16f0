package sweep

// Fuzz targets for the two record parsers that read bytes from outside
// the process: ScanResume (a -resume output file, a fleet store's shard
// files) and CachedResult (a cache entry's payload). The invariant for
// both: an error or a valid state — never a panic, and never a wrong
// record accepted. Both are seeded with real records of the toy grid.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzRecords runs the toy grid and returns its JSONL split into
// records, each with its trailing newline.
func fuzzRecords(f *testing.F) [][]byte {
	f.Helper()
	var buf bytes.Buffer
	if _, err := runSpec(toySpec(), NewJSONL(&buf), WithWorkers(2)); err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	return lines[:len(lines)-1]
}

// FuzzScanResume scans arbitrary bytes against the toy grid's cells. On
// a nil error the state must describe data exactly: data[:Offset] is
// Done newline-terminated records, each the record of the cell at its
// position, and only a trailing partial line lies beyond it.
func FuzzScanResume(f *testing.F) {
	recs := fuzzRecords(f)
	cells := toySpec().Cells()
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	all := join(recs...)
	f.Add(all)
	f.Add([]byte{})
	f.Add(join(recs[:3]...))
	f.Add(all[:len(all)-7])                     // torn final record
	f.Add(join(recs[0], recs[2]))               // a record out of place
	f.Add(join(all, recs[0]))                   // more records than cells
	f.Add(join(recs[0], []byte("\n"), recs[1])) // blank interior line
	f.Add([]byte("{}\nnull\n"))
	f.Add(join([]byte("\v"), recs[0])) // whitespace JSON does not allow
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ScanResume(bytes.NewReader(data), cells)
		if err != nil {
			return
		}
		if st.Done < 0 || st.Done > len(cells) {
			t.Fatalf("Done = %d, outside [0, %d]", st.Done, len(cells))
		}
		if st.Offset < 0 || st.Offset > int64(len(data)) {
			t.Fatalf("Offset = %d, outside [0, %d]", st.Offset, len(data))
		}
		if st.Truncated != (st.Offset < int64(len(data))) {
			t.Fatalf("Truncated = %v with Offset %d of %d bytes", st.Truncated, st.Offset, len(data))
		}
		lines := bytes.SplitAfter(data[:st.Offset], []byte("\n"))
		if len(lines) != st.Done+1 || len(lines[st.Done]) != 0 {
			t.Fatalf("verified prefix holds %d lines (last %q), want exactly %d records", len(lines)-1, lines[len(lines)-1], st.Done)
		}
		for i, line := range lines[:st.Done] {
			var r Result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("accepted record %d is not a JSON record: %v", i, err)
			}
			if err := CheckRecord(&r, &cells[i]); err != nil {
				t.Fatalf("accepted record %d %v", i, err)
			}
		}
	})
}

// FuzzCachedResult decodes arbitrary payloads for one toy cell. A
// payload CachedResult accepts must be exactly what a cold run would
// emit for that cell: its re-marshal reproduces it byte for byte, it
// carries no error, and it is the cell's record.
func FuzzCachedResult(f *testing.F) {
	recs := fuzzRecords(f)
	const at = 5
	c := toySpec().Cells()[at]
	for _, i := range []int{at, at - 1, at + 1} {
		f.Add(bytes.TrimSuffix(recs[i], []byte("\n")))
	}
	f.Add(recs[at]) // trailing newline: not the stored payload form
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"family":"torus","err":"boom"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, ok := CachedResult(payload, &c)
		if !ok {
			return
		}
		again, err := json.Marshal(r)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not re-marshal to itself (err %v):\n got %s\nwant %s", err, again, payload)
		}
		if r.Err != "" {
			t.Fatalf("accepted an error record: %q", r.Err)
		}
		if err := CheckRecord(r, &c); err != nil {
			t.Fatalf("accepted a foreign record: %v", err)
		}
	})
}
