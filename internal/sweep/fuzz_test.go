package sweep

// Fuzz targets for the parsers that read bytes from outside the
// process: Load (a -spec file, a job POSTed to serve or the
// coordinator), ScanResume (a -resume output file), CachedResult (a
// cache entry's payload), MergeShards (the shard files `faultexp merge`
// reads), the three record-stream readers side by side, and the token
// parsers behind CLI flags and spec fields. The invariant for all of
// them: an error or a valid state — never a panic, and never a wrong
// spec, record or token accepted. All but the token parsers are seeded
// with the toy grid.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"faultexp/internal/gen"
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

// restamp returns records with this binary's kernel stamp replaced by
// another generation's.
func restamp(records []byte, kernel string) []byte {
	return bytes.ReplaceAll(records, []byte(`"kernel":"`+KernelVersion+`"`), []byte(`"kernel":"`+kernel+`"`))
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
	f.Add(join([]byte("\v"), recs[0]))                               // whitespace JSON does not allow
	f.Add(join(recs[0], restamp(recs[1], "fx-kernels-v0"), recs[2])) // another kernel generation's record
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
		// The identity fields, compared here rather than through
		// CheckRecord, which CachedResult calls.
		if r.Seed != c.Seed || r.Trials != c.Trials || r.TrialBlock != c.TrialBlock ||
			r.Family != c.Family.Family || r.Size != c.Family.Size || r.Measure != c.Measure ||
			r.Model != c.Model || r.Rate != c.Rate || r.Precision != "" {
			t.Fatalf("accepted a foreign record: %s", payload)
		}
	})
}

// FuzzMergeShards merges the toy grid's 3-way split with one shard
// (picked by which) replaced by arbitrary bytes, once without and once
// with the spec. A merge that succeeds must have merged every input
// line (a blank line is refused, not skipped) and written exactly the
// records it counts, each a line that decodes as a Result and, given
// the spec, passes CheckRecord against the cell at its position.
func FuzzMergeShards(f *testing.F) {
	spec := toySpec()
	cells := spec.Cells()
	const m = 3
	shards := make([][]byte, m)
	for i := range shards {
		var buf bytes.Buffer
		if _, err := runSpec(spec, NewJSONL(&buf), WithShard(Shard{Index: i, Count: m})); err != nil {
			f.Fatal(err)
		}
		shards[i] = buf.Bytes()
	}
	last := bytes.LastIndexByte(shards[0][:len(shards[0])-1], '\n') + 1
	f.Add(uint8(0), shards[0][:last+50]) // a killed shard run's torn tail
	for i, sh := range shards {
		f.Add(uint8(i), sh)
	}
	f.Add(uint8(1), shards[0])                                      // another shard's records
	f.Add(uint8(2), shards[2][:bytes.IndexByte(shards[2], '\n')+1]) // cut to one record
	f.Add(uint8(1), []byte{})                                       // an empty shard
	f.Add(uint8(0), []byte("{}\nnull\n{}\n{}\n"))                   // records that decode to nothing
	f.Add(uint8(0), append(slices.Clone(shards[0]), '\n'))          // a blank line after the last record
	f.Add(uint8(1), restamp(shards[1], "fx-kernels-v0"))            // another kernel generation's records
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		inputs := slices.Clone(shards)
		inputs[int(which)%m] = data
		inputLines := 0
		for _, in := range inputs {
			sc := bufio.NewScanner(bytes.NewReader(in))
			sc.Buffer(nil, 64<<20)
			for sc.Scan() {
				inputLines++
			}
		}
		for _, s := range []*Spec{nil, spec} {
			readers := make([]io.Reader, m)
			for i, in := range inputs {
				readers[i] = bytes.NewReader(in)
			}
			var out bytes.Buffer
			n, err := MergeShards(readers, &out, nil, s)
			if err != nil {
				continue
			}
			if n != inputLines {
				t.Fatalf("merge reported %d records from %d input lines", n, inputLines)
			}
			lines := bytes.SplitAfter(out.Bytes(), []byte("\n"))
			if len(lines) != n+1 || len(lines[n]) != 0 {
				t.Fatalf("merge reported %d records but wrote %d lines (last %q)", n, len(lines)-1, lines[len(lines)-1])
			}
			for i, line := range lines[:n] {
				var r Result
				if err := json.Unmarshal(line, &r); err != nil {
					t.Fatalf("merged line %d is not a JSON record: %v", i, err)
				}
				if s != nil {
					if err := CheckRecord(&r, &cells[i]); err != nil {
						t.Fatalf("merged record %d %v", i, err)
					}
				}
			}
		}
	})
}

// FuzzRecordStreams feeds one byte string to the three readers of a
// record stream: ScanResume against the toy grid's cells, MergeShards
// as a single shard with no spec, and AddJSONL. They read under one
// line rule, so merge and agg accept exactly the same inputs and count
// the same records; an input resume reads to its end, with no torn
// tail, merges and aggregates to its Done records; and an input whose
// tail resume calls torn is refused by both.
func FuzzRecordStreams(f *testing.F) {
	recs := fuzzRecords(f)
	cells := toySpec().Cells()
	all := bytes.Join(recs, nil)
	f.Add(all)
	f.Add(all[:len(all)-1])                    // a torn tail that decodes
	f.Add(append(slices.Clone(recs[0]), '\n')) // a blank line
	f.Add(bytes.ReplaceAll(all, []byte("\n"), []byte("\r\n")))
	f.Add([]byte("{}\nnull\n"))
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{recs[0], restamp(recs[1], "fx-kernels-v0")}, nil)) // two kernel generations
	f.Fuzz(func(t *testing.T, data []byte) {
		st, resumeErr := ScanResume(bytes.NewReader(data), cells)
		n, mergeErr := MergeShards([]io.Reader{bytes.NewReader(data)}, io.Discard, nil, nil)
		agg, err := NewAggregator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		aggErr := agg.AddJSONL(bytes.NewReader(data))
		if (mergeErr == nil) != (aggErr == nil) {
			t.Fatalf("merge and agg disagree: merge error %v, agg error %v", mergeErr, aggErr)
		}
		if mergeErr == nil && n != agg.Records+agg.Skipped {
			t.Fatalf("merge counted %d records, agg %d", n, agg.Records+agg.Skipped)
		}
		switch {
		case resumeErr != nil:
		case st.Truncated && mergeErr == nil:
			t.Fatalf("resume found a torn tail at offset %d, and merge and agg accepted it", st.Offset)
		case !st.Truncated && (mergeErr != nil || n != st.Done):
			t.Fatalf("resume read %d records to the end; merge read %d (error %v)", st.Done, n, mergeErr)
		}
	})
}

// fuzzMaxCells caps the grids FuzzLoadSpec expands, so a spec with long
// axes cannot exhaust the fuzzer's memory.
const fuzzMaxCells = 1 << 14

// FuzzLoadSpec loads arbitrary spec JSON. A spec Load accepts must
// expand to cells with pairwise-distinct seeds — two cells sharing one
// would emit identical records — and rates in [0,1]. Seeded with the
// toy grid and the shapes of CI's spec files, on the toy measure (the
// real measures are not registered in this package's tests).
func FuzzLoadSpec(f *testing.F) {
	toy, err := json.Marshal(toySpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(toy)
	f.Add([]byte(`{"families": [{"family": "torus", "size": "8x8"}, {"family": "smallworld", "size": "64x4", "k": 6}],
		"measures": ["toy"], "models": ["iid-node", "iid-edge"], "rates": [0, 0.1, 0.2], "trials": 2, "seed": 7}`))
	f.Add([]byte(`{"families": [{"family": "torus", "size": "48x48"}], "measures": ["toy"], "model": "iid-node",
		"rates": [0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45], "trials": 6000, "seed": 7}`))
	f.Add([]byte(`{"families": [{"family": "torus", "size": "4x4"}], "measures": ["toy"], "model": "iid-node",
		"rates": [0.1, 0.1], "trials": 1, "seed": 7}`)) // a repeated rate
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(s.Families)*len(s.Measures)*len(s.Models)*len(s.Rates) > fuzzMaxCells {
			t.Skip("grid above the fuzz size cap")
		}
		seen := map[uint64]int{}
		for _, c := range s.Cells() {
			if !(c.Rate >= 0 && c.Rate <= 1) {
				t.Fatalf("cell %d has rate %v outside [0,1]", c.Index, c.Rate)
			}
			if prev, dup := seen[c.Seed]; dup {
				t.Fatalf("cells %d and %d share seed %d", prev, c.Index, c.Seed)
			}
			seen[c.Seed] = c.Index
		}
	})
}

// FuzzParseTokens feeds one token to every token parser: ParseFamily,
// ParseShard, ParsePrecision, and gen.ParseDimsBudget on both tiers. A
// token each accepts must give a valid value that parses back from its
// String() form to itself: the family and shard pass Validate, the
// precision is exact with K = 0 or sampled with K ≥ 1, and the dims are
// each ≥ 1 with their product within the tier's vertex cap.
func FuzzParseTokens(f *testing.F) {
	for _, tok := range []string{
		"torus:8x8", " chain:16:4 ", "smallworld:64x4:+6", "torus:8x8:2", "torus:", "nosuch:4",
		"0/3", "2/3", "3/3", "-1/2", "+1/2", " 0/1",
		"", "exact", "sampled:8", "sampled:0", "sampled:+5",
		"8x8", "4096x4096", "4096x4097", "1x1x1x0", "100000x100000", "x",
	} {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if fs, err := ParseFamily(tok); err == nil {
			if err := fs.Validate(); err != nil {
				t.Fatalf("ParseFamily(%q) = %+v fails Validate: %v", tok, fs, err)
			}
			if again, err := ParseFamily(fs.String()); err != nil || again != fs {
				t.Fatalf("ParseFamily(%q) = %+v does not round-trip through %q: %+v, %v", tok, fs, fs.String(), again, err)
			}
		}
		if sh, err := ParseShard(tok); err == nil {
			if err := sh.Validate(); err != nil {
				t.Fatalf("ParseShard(%q) = %+v fails Validate: %v", tok, sh, err)
			}
			if again, err := ParseShard(sh.String()); err != nil || again != sh {
				t.Fatalf("ParseShard(%q) = %+v does not round-trip through %q: %+v, %v", tok, sh, sh.String(), again, err)
			}
		}
		if p, err := ParsePrecision(tok); err == nil {
			if p.Sampled != (p.K >= 1) || p.K < 0 {
				t.Fatalf("ParsePrecision(%q) = %+v, want exact with K = 0 or sampled with K ≥ 1", tok, p)
			}
			if again, err := ParsePrecision(p.String()); err != nil || again != p {
				t.Fatalf("ParsePrecision(%q) = %+v does not round-trip through %q: %+v, %v", tok, p, p.String(), again, err)
			}
		}
		for _, b := range []gen.Budget{gen.DefaultBudget, gen.SampledBudget} {
			dims, err := gen.ParseDimsBudget(tok, b)
			if err != nil {
				continue
			}
			total := int64(1)
			parts := make([]string, len(dims))
			for i, d := range dims {
				if d < 1 {
					t.Fatalf("ParseDimsBudget(%q) = %v has a factor below 1", tok, dims)
				}
				total *= int64(d)
				if total > b.MaxV {
					t.Fatalf("ParseDimsBudget(%q) = %v exceeds the cap %d", tok, dims, b.MaxV)
				}
				parts[i] = strconv.Itoa(d)
			}
			joined := strings.Join(parts, "x")
			if again, err := gen.ParseDimsBudget(joined, b); err != nil || !slices.Equal(again, dims) {
				t.Fatalf("ParseDimsBudget(%q) = %v does not round-trip through %q: %v, %v", tok, dims, joined, again, err)
			}
		}
	})
}
