package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrTorn marks bytes after a stream's last newline, a record whose
// write was cut short; ErrMalformed, a line that is not a Result.
var (
	ErrTorn      = errors.New("torn: the stream ends before this line's newline")
	ErrMalformed = errors.New("malformed")
)

// RecordReader reads a JSONL record stream — a -resume file, a shard
// file, an agg input, a fleet store's shard file or a worker's result
// stream — under the one rule every reader of records applies. A record
// is one line ending in '\n', passed on byte for byte with its newline
// and any '\r', at most 64 MiB long, that decodes as a Result (JSON
// whitespace around it is allowed, so a blank line is refused). Bytes
// after the last newline are a torn tail: resume and the fleet's store
// rebuild truncate and re-run it, and the readers that cannot re-run it
// refuse it. Given cells, record i must also pass CheckRecord against
// cells[i]. A refused line is named by its 0-based index in its stream.
type RecordReader struct {
	sc    *bufio.Scanner
	cells []Cell
	// Index counts the records read so far: the index of the next line.
	Index int
	// Offset is the byte offset just past them, where a torn tail starts.
	Offset int64
}

// NewRecordReader reads records from r, checking record i against
// cells[i] unless cells is nil.
func NewRecordReader(r io.Reader, cells []Cell) *RecordReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return 0, nil, ErrTorn
		}
		return 0, nil, nil
	})
	return &RecordReader{sc: sc, cells: cells}
}

// Next returns the next record's line, valid until the next call, and
// its Result. It returns io.EOF at a clean end, and otherwise an error
// naming the line it stopped at, which wraps ErrTorn for a torn tail,
// ErrMalformed for a line that is not a Result, and the read error when
// reading the stream failed.
func (r *RecordReader) Next() ([]byte, *Result, error) {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("record %d: %w", r.Index, err)
		}
		return nil, nil, io.EOF
	}
	line, res := r.sc.Bytes(), new(Result)
	if err := json.Unmarshal(line, res); err != nil {
		return nil, nil, fmt.Errorf("record %d: %w: %v", r.Index, ErrMalformed, err)
	}
	if r.cells != nil {
		if r.Index >= len(r.cells) {
			return nil, nil, fmt.Errorf("record %d: the stream holds more than the run's %d cells — wrong spec or shard", r.Index, len(r.cells))
		}
		if err := CheckRecord(res, &r.cells[r.Index]); err != nil {
			return nil, nil, fmt.Errorf("record %d %w", r.Index, err)
		}
	}
	r.Index++
	r.Offset += int64(len(line))
	return line, res, nil
}

// oneKernel is the rule for records read without a spec, across every
// stream of one output (merge's shards, agg's inputs): each record must
// carry the first record's kernel stamp, so records of two kernel
// generations never mix. With a spec, CheckRecord pins the stamp to
// this binary's instead.
type oneKernel struct {
	stamp string
	seen  bool
}

func (k *oneKernel) check(res *Result) error {
	if !k.seen {
		k.stamp, k.seen = res.Kernel, true
		return nil
	}
	if res.Kernel != k.stamp {
		return fmt.Errorf("has kernel stamp %s, the first record %s — records of two kernel generations do not mix", stampName(res.Kernel), stampName(k.stamp))
	}
	return nil
}
