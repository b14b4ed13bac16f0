package sweep

// Sharded execution: a big grid can be split round-robin across
// processes or machines (`faultexp sweep -shard i/m`) and the per-shard
// JSONL streams merged back (`faultexp merge`) into output
// byte-identical to the unsharded run. This falls out of the existing
// determinism design: a cell's seed depends only on its semantic key,
// so which process executes it cannot change its bytes, and round-robin
// assignment makes the merge a pure line interleave — no parsing, no
// re-sorting, no coordination between shards.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Shard selects the subset of grid cells one process executes: cell i
// of the expanded grid runs on shard i mod Count. Count ≤ 1 disables
// sharding (the whole grid runs). Shards are independent — no shared
// state, no ordering constraints between their runs.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Enabled reports whether the shard actually restricts the cell set.
func (s Shard) Enabled() bool { return s.Count > 1 }

// Validate checks 0 ≤ Index < Count (for Count ≥ 1; the zero value is
// valid and means "no sharding").
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 || (s.Count > 0 && s.Index >= s.Count) {
		return fmt.Errorf("sweep: shard %d/%d out of range (want 0 ≤ i < m)", s.Index, s.Count)
	}
	return nil
}

// String renders the shard in the CLI "i/m" form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the CLI token "i/m" (0-based: shards of a 3-way
// split are 0/3, 1/3, 2/3).
func ParseShard(tok string) (Shard, error) {
	is, ms, ok := strings.Cut(strings.TrimSpace(tok), "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard token %q, want i/m (e.g. 0/3)", tok)
	}
	i, err1 := strconv.Atoi(is)
	m, err2 := strconv.Atoi(ms)
	if err1 != nil || err2 != nil || m < 1 || i < 0 || i >= m {
		return Shard{}, fmt.Errorf("sweep: shard token %q, want i/m with 0 ≤ i < m", tok)
	}
	return Shard{Index: i, Count: m}, nil
}

// shardLineCount returns how many of total round-robin-assigned records
// land on shard i of m.
func shardLineCount(total, i, m int) int {
	return (total - i + m - 1) / m
}

// ShardFileName is the canonical on-disk name for one shard's JSONL
// output: "shard-<i>-of-<m>.jsonl". The durable job store writes this
// layout and `faultexp merge -dir` reads it back; keeping the name in
// one place is what lets the two agree. Count ≤ 1 (no sharding) names
// the single file shard-0-of-1.jsonl.
func ShardFileName(sh Shard) string {
	m := sh.Count
	if m < 1 {
		m = 1
	}
	return fmt.Sprintf("shard-%d-of-%d.jsonl", sh.Index, m)
}

// ParseShardFileName inverts ShardFileName; ok=false for any name not
// of the exact shard-<i>-of-<m>.jsonl form (with 0 ≤ i < m).
func ParseShardFileName(name string) (Shard, bool) {
	rest, found := strings.CutPrefix(name, "shard-")
	if !found {
		return Shard{}, false
	}
	rest, found = strings.CutSuffix(rest, ".jsonl")
	if !found {
		return Shard{}, false
	}
	is, ms, found := strings.Cut(rest, "-of-")
	if !found {
		return Shard{}, false
	}
	i, err1 := strconv.Atoi(is)
	m, err2 := strconv.Atoi(ms)
	if err1 != nil || err2 != nil || m < 1 || i < 0 || i >= m ||
		is != strconv.Itoa(i) || ms != strconv.Itoa(m) {
		return Shard{}, false
	}
	return Shard{Index: i, Count: m}, true
}

// ShardFiles discovers a complete shard-<i>-of-<m>.jsonl set in dir and
// returns the paths in shard order (0/m first) — ready to hand to
// MergeShards. The set must be complete and consistent: every file
// agreeing on m, all m shards present, no duplicates. Files not
// matching the naming scheme are ignored, so a job store directory's
// spec.json and meta.json coexist with the shard outputs.
func ShardFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var m int
	found := map[int]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		sh, ok := ParseShardFileName(e.Name())
		if !ok {
			continue
		}
		if m == 0 {
			m = sh.Count
		}
		if sh.Count != m {
			return nil, fmt.Errorf("sweep: %s holds shard files from different splits (%d-way and %d-way) — not one job's output", dir, m, sh.Count)
		}
		found[sh.Index] = filepath.Join(dir, e.Name())
	}
	if m == 0 {
		return nil, fmt.Errorf("sweep: no shard-<i>-of-<m>.jsonl files in %s", dir)
	}
	paths := make([]string, 0, m)
	for i := 0; i < m; i++ {
		p, ok := found[i]
		if !ok {
			return nil, fmt.Errorf("sweep: %s is missing %s — incomplete shard set", dir, ShardFileName(Shard{Index: i, Count: m}))
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// MergeShards reassembles the output of a sharded sweep, streaming: it
// holds one line per shard in memory, so multi-gigabyte grids merge in
// O(shards) space. shards are the per-shard JSONL streams, given in
// shard order (0/m first); jsonl (if non-nil) receives the original
// lines byte-for-byte, interleaved back into unsharded cell order; w
// (if non-nil) receives every record decoded and re-emitted in the same
// order — pass a CSV writer to produce the merged CSV. Returns the
// number of merged records.
//
// Every shard is read under RecordReader's rule, so a blank or non-JSON
// line, or a torn tail (what a killed shard run leaves, which a merge
// cannot re-run), is refused even without a spec or a structured
// writer. Byte identity with the unsharded run holds for the JSONL
// output because lines pass through untouched; for the CSV output
// because the CSV encoding is a pure function of the decoded Result
// (fixed column order, sorted metric keys, shortest-round-trip floats).
//
// The shard record counts are checked against the round-robin profile
// (shard i holds cells i, i+m, i+2m, … — counts non-increasing across
// the file list, spread ≤ 1): a truncated file or unequal-length files
// in the wrong order are refused. The profile check alone cannot catch
// equal-length files swapped or an equal-length subset of the shards —
// pass the grid spec (nil to skip) and the merge additionally checks
// every record against its exact cell position (CheckRecord: kernel
// stamp, seed, trial budget, block partition), which catches both, as
// well as shards run with a different trial budget or block partition
// than the spec, or by another kernel generation than this binary's.
// Without the spec, every record must carry the first record's kernel
// stamp (oneKernel), so shards of two generations never merge.
// Output may be partially written when an error is returned.
func MergeShards(shards []io.Reader, jsonl io.Writer, w Writer, spec *Spec) (merged int, err error) {
	m := len(shards)
	if m == 0 {
		return 0, fmt.Errorf("sweep: merge needs at least one shard")
	}
	var cells []Cell
	if spec != nil {
		if err := spec.Validate(); err != nil {
			return 0, err
		}
		cells = spec.Cells()
	}
	streams := make([]*RecordReader, m)
	for i, r := range shards {
		streams[i] = NewRecordReader(r, nil)
	}
	var bw *bufio.Writer
	if jsonl != nil {
		bw = bufio.NewWriter(jsonl)
	}
	// Merged record k is record k div m of shard k mod m. The first shard
	// to run dry ends the merge: round-robin counts are non-increasing
	// across the file list, so every other shard must be dry at its next
	// turn, or the files are truncated or misordered.
	var stamps oneKernel
	for ; ; merged++ {
		s := merged % m
		line, res, err := streams[s].Next()
		if err == io.EOF {
			for o := (s + 1) % m; o != s; o = (o + 1) % m {
				if _, _, err := streams[o].Next(); err == nil {
					return merged, fmt.Errorf("sweep: shard %d has more records than shard %d — shard files truncated or not in 0/%d..%d/%d order",
						o, s, m, m-1, m)
				} else if err != io.EOF {
					return merged, fmt.Errorf("sweep: shard %d %w", o, err)
				}
			}
			break
		}
		if err != nil {
			return merged, fmt.Errorf("sweep: shard %d %w", s, err)
		}
		if cells != nil {
			if merged >= len(cells) {
				return merged, fmt.Errorf("sweep: shards hold more records than the spec's %d cells", len(cells))
			}
			if err := CheckRecord(res, &cells[merged]); err != nil {
				return merged, fmt.Errorf("sweep: record %d (shard %d record %d) %w", merged, s, merged/m, err)
			}
		} else if err := stamps.check(res); err != nil {
			return merged, fmt.Errorf("sweep: record %d (shard %d record %d) %w", merged, s, merged/m, err)
		}
		if bw != nil {
			if _, err := bw.Write(line); err != nil {
				return merged, fmt.Errorf("sweep: writing merged JSONL: %w", err)
			}
		}
		if w != nil {
			if err := w.Write(res); err != nil {
				return merged, fmt.Errorf("sweep: writing merged record: %w", err)
			}
		}
	}
	if cells != nil && merged != len(cells) {
		return merged, fmt.Errorf("sweep: shards hold %d records but the spec expands to %d cells", merged, len(cells))
	}
	if bw != nil {
		if err := bw.Flush(); err != nil {
			return merged, fmt.Errorf("sweep: flushing merged JSONL: %w", err)
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return merged, fmt.Errorf("sweep: flushing merged records: %w", err)
		}
	}
	return merged, nil
}
