package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"faultexp/internal/sweep"
)

// FuzzCoordinatorRebuild stores one job of the fabric test grid, split
// 2 ways, writes arbitrary bytes as one of its shard files (picked by
// which), and rebuilds the store with a coordinator that has no
// workers. NewCoordinator must neither panic nor fail. The job then
// either failed with an error, or its shard log holds exactly the first
// k complete lines of the bytes, each passing CheckRecord at its cell,
// only a torn tail (no newline) followed them, and the file on disk is
// cut to those k lines.
func FuzzCoordinatorRebuild(f *testing.F) {
	const m = 2
	spec := loadSpec(f, workerSpecJSON)
	lines := bytes.SplitAfter(refBytes(f, workerSpecJSON), []byte("\n"))
	shards := make([][]byte, m)
	for c, line := range lines {
		shards[c%m] = append(shards[c%m], line...)
	}
	first := len(lines[1]) // shard 1's first record
	f.Add(uint8(0), shards[0])
	f.Add(uint8(1), shards[1])
	f.Add(uint8(0), append(bytes.Clone(shards[0]), `{"family":"torn`...))                       // a killed write's torn tail
	f.Add(uint8(1), append(append(bytes.Clone(shards[1][:first]), '\n'), shards[1][first:]...)) // a blank interior line
	f.Add(uint8(0), shards[1])                                                                  // another shard's records
	f.Add(uint8(1), []byte("{}\nnull\n"))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sj, err := st.Create(spec, []byte(workerSpecJSON), m)
		if err != nil {
			t.Fatal(err)
		}
		i := int(which) % m
		if err := os.WriteFile(sj.ShardPath(i), data, 0o666); err != nil {
			t.Fatal(err)
		}
		ctx, shutdown := context.WithCancel(context.Background())
		co, err := NewCoordinator(ctx, CoordinatorConfig{Store: st})
		if err != nil {
			shutdown()
			t.Fatalf("NewCoordinator: %v", err)
		}
		cj := co.jobs.list()[0]
		// Shut down, and wait until the job's run, if one started, has
		// created its shard files and ended its streams, so the store
		// directory is left alone before it is removed.
		shutdown()
		for _, l := range cj.logs {
			l.next(context.Background(), l.count())
		}
		if cj.jobState() == sweep.JobFailed {
			if cj.view(false).(CoordJobView).Snapshot.Err == "" {
				t.Fatal("the rebuilt job failed without an error")
			}
			return
		}
		k := cj.logs[i].count()
		var kept []byte
		for j := 0; j < k; j++ {
			line, _ := cj.logs[i].next(context.Background(), j)
			kept = append(kept, line...)
			var r sweep.Result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("shard log line %d is not a record: %v", j, err)
			}
			if err := sweep.CheckRecord(&r, &cj.cellsBy[i][j]); err != nil {
				t.Fatalf("shard log line %d %v", j, err)
			}
		}
		if !bytes.HasPrefix(data, kept) || bytes.IndexByte(data[len(kept):], '\n') >= 0 {
			t.Fatalf("shard log holds %d lines that are not the file's complete lines", k)
		}
		if disk, err := os.ReadFile(sj.ShardPath(i)); err != nil || !bytes.Equal(disk, kept) {
			t.Fatalf("shard file holds %d bytes after the rebuild (%v), want its %d verified bytes", len(disk), err, len(kept))
		}
	})
}
