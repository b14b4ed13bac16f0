package sweep

// The result-cache adversarial matrix: warm runs must be byte-identical
// to cold runs with hits == cells; anything questionable on disk — a
// foreign payload, a torn or bit-flipped entry, a stale kernel stamp —
// must demote to a miss and recompute, never surface wrong bytes; and
// the cache must compose with every other execution axis (shards,
// resume, coupled groups, trial blocks, shared single-flight).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"faultexp/internal/cache"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

func init() {
	// ctoy gives the cache tests a coupled measure without importing the
	// real kernels: one coupling draw per node per trial, survivors
	// counted per rate (monotone in rate, as the coupled contract wants).
	Register("ctoy", Measure{Trials: func(g *graph.Graph, c Cell, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) (TrialRun, error) {
		return TrialRun{Trial: func(t int, ws *graph.Workspace, rng *xrand.RNG, rec *Recorder) error {
			alive := 0
			for i := 0; i < g.N(); i++ {
				if rng.Float64() >= c.Rate {
					alive++
				}
			}
			rec.Observe("alive_frac", float64(alive)/float64(g.N()))
			return nil
		}}, nil
	}, Coupled: func(g *graph.Graph, cells []Cell, ws *graph.Workspace, rng *xrand.RNG, recs []*Recorder) (CoupledRun, error) {
		n := g.N()
		draws := make([]float64, n)
		return CoupledRun{
			Trial: func(t int, ws *graph.Workspace, crng *xrand.RNG, mrngs []*xrand.RNG, recs []*Recorder) error {
				for i := range draws {
					draws[i] = crng.Float64()
				}
				for ri, c := range cells {
					alive := 0
					for _, d := range draws {
						if d >= c.Rate {
							alive++
						}
					}
					recs[ri].Observe("alive_frac", float64(alive)/float64(n))
				}
				return nil
			},
		}, nil
	}})
}

// runCached runs spec through the Job API with the given cache and
// returns the output bytes plus the final snapshot (for the counters).
func runCached(t *testing.T, spec *Spec, rc *cache.Cache, opts ...JobOption) ([]byte, Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	all := append([]JobOption{WithWriter(NewJSONL(&buf)), WithWorkers(3), WithCache(rc)}, opts...)
	j, err := NewJob(spec, all...)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return buf.Bytes(), j.Snapshot()
}

// cellEntryPath returns the on-disk entry file for one cell of a spec's
// grid — the corruption tests edit entries in place.
func cellEntryPath(rc *cache.Cache, spec *Spec, i int) string {
	var h cache.Hasher
	hx := CellCacheKey(&h, spec.RateMode, spec.Cells()[i]).String()
	return filepath.Join(rc.Dir(), hx[:2], hx[2:])
}

// checkCounters enforces the accounting invariant: every cell is exactly
// one of hit, miss, or in-flight-dedup.
func checkCounters(t *testing.T, s Snapshot, hits, misses int64) {
	t.Helper()
	if s.CacheHits != hits || s.CacheMisses != misses {
		t.Errorf("counters = %d hits, %d misses (inflight %d); want %d hits, %d misses",
			s.CacheHits, s.CacheMisses, s.CacheInflight, hits, misses)
	}
	if got := s.CacheHits + s.CacheMisses + s.CacheInflight; got != int64(s.CellsTotal) {
		t.Errorf("hits+misses+inflight = %d, want CellsTotal = %d", got, s.CellsTotal)
	}
}

// TestCacheWarmRunByteIdentical is the tentpole guarantee: a warm run
// over an identical spec emits byte-identical output without computing
// anything, and an uncached run matches both.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	spec := toySpec()
	want := jobRef(t) // uncached reference
	cells := int64(len(spec.Cells()))

	rc, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, cs := runCached(t, spec, rc)
	if !bytes.Equal(cold, want) {
		t.Fatal("cold cached run differs from uncached run")
	}
	checkCounters(t, cs, 0, cells)

	warm, ws := runCached(t, spec, rc)
	if !bytes.Equal(warm, want) {
		t.Fatalf("warm run differs from cold run:\n--- warm ---\n%s--- cold ---\n%s", warm, cold)
	}
	checkCounters(t, ws, cells, 0)
	if ws.GraphsTotal != 0 {
		t.Errorf("fully-warm run scheduled %d graph builds, want 0", ws.GraphsTotal)
	}
}

// TestCacheRejectsForeignPayload plants a different cell's (valid,
// well-formed) record under a cell's key. Identity verification must
// treat it as a miss — the run stays byte-identical to cold.
func TestCacheRejectsForeignPayload(t *testing.T) {
	spec := toySpec()
	rc, _ := cache.Open(t.TempDir())
	want, _ := runCached(t, spec, rc)

	// Overwrite cell 0's entry with cell 1's payload.
	p1, err := os.ReadFile(cellEntryPath(rc, spec, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cellEntryPath(rc, spec, 0), p1, 0o644); err != nil {
		t.Fatal(err)
	}

	got, s := runCached(t, spec, rc)
	if !bytes.Equal(got, want) {
		t.Fatal("foreign payload leaked into the output")
	}
	checkCounters(t, s, int64(len(spec.Cells()))-1, 1)
}

// TestCacheCorruptEntriesRecomputed is the torn-write matrix at the
// sweep level: truncate one entry and bit-flip another, then require the
// warm run to silently recompute exactly those two cells — and to heal
// the cache, so a third run is all hits.
func TestCacheCorruptEntriesRecomputed(t *testing.T) {
	spec := toySpec()
	cells := int64(len(spec.Cells()))
	rc, _ := cache.Open(t.TempDir())
	want, _ := runCached(t, spec, rc)

	// Truncate entry 2 (a torn write)…
	p2 := cellEntryPath(rc, spec, 2)
	b2, _ := os.ReadFile(p2)
	if err := os.WriteFile(p2, b2[:len(b2)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// …and flip a payload bit in entry 5 (silent disk corruption).
	p5 := cellEntryPath(rc, spec, 5)
	b5, _ := os.ReadFile(p5)
	b5[len(b5)-3] ^= 0x01
	if err := os.WriteFile(p5, b5, 0o644); err != nil {
		t.Fatal(err)
	}

	got, s := runCached(t, spec, rc)
	if !bytes.Equal(got, want) {
		t.Fatal("run with corrupt entries is not byte-identical to cold")
	}
	checkCounters(t, s, cells-2, 2)

	// The recompute wrote back clean entries: third run all hits.
	got3, s3 := runCached(t, spec, rc)
	if !bytes.Equal(got3, want) {
		t.Fatal("healed run differs")
	}
	checkCounters(t, s3, cells, 0)
}

// TestCacheStaleKernelVersion simulates a kernel-version bump by
// rewriting every entry under keys derived from a different version
// stamp: the current-version run must find nothing.
func TestCacheStaleKernelVersion(t *testing.T) {
	spec := toySpec()
	rc, _ := cache.Open(t.TempDir())
	want, _ := runCached(t, spec, rc)

	// Re-home every payload under a stale-stamp key and delete the
	// current-version entries.
	var h cache.Hasher
	for i, c := range spec.Cells() {
		cur := cellEntryPath(rc, spec, i)
		payload, ok := rc.Get(CellCacheKey(&h, spec.RateMode, c))
		if !ok {
			t.Fatalf("cell %d missing after cold run", i)
		}
		h.Reset()
		h.Field(KernelVersion + "-stale")
		h.Field(RateModeIndependent)
		if err := rc.Put(h.Sum(), payload); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(cur); err != nil {
			t.Fatal(err)
		}
	}

	got, s := runCached(t, spec, rc)
	if !bytes.Equal(got, want) {
		t.Fatal("post-bump run differs from cold")
	}
	checkCounters(t, s, 0, int64(len(spec.Cells())))
}

// TestCacheShardResumeComposition exercises the cache against the other
// two execution axes at once: sharded runs fill one shared cache, the
// merged output matches the golden bytes, a warm unsharded run is all
// hits, and a resume (WithSkipCells) on a warm cache completes the suffix
// byte-identically.
func TestCacheShardResumeComposition(t *testing.T) {
	spec := multiModelSpec()
	golden := runJobToBytes(t, spec, 3)
	cells := spec.Cells()

	rc, _ := cache.Open(t.TempDir())

	// Two shards share the cache; their merge must equal the golden run.
	const m = 2
	shardOut := make([]*bytes.Reader, m)
	for i := 0; i < m; i++ {
		b, s := runCached(t, spec, rc, WithShard(Shard{Index: i, Count: m}))
		checkCounters(t, s, 0, int64(s.CellsTotal))
		shardOut[i] = bytes.NewReader(b)
	}
	var merged bytes.Buffer
	streams := make([]io.Reader, m)
	for i, r := range shardOut {
		streams[i] = r
	}
	n, err := MergeShards(streams, &merged, nil, spec)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if n != len(cells) || !bytes.Equal(merged.Bytes(), golden) {
		t.Fatalf("merged shard output differs from golden (%d records)", n)
	}

	// Unsharded warm run over the shard-filled cache: every cell hits.
	warm, ws := runCached(t, spec, rc)
	if !bytes.Equal(warm, golden) {
		t.Fatal("warm unsharded run differs from golden")
	}
	checkCounters(t, ws, int64(len(cells)), 0)

	// Resume composition: skip a golden prefix, warm-complete the rest.
	skip := len(cells) / 2
	var buf bytes.Buffer
	prefix := prefixLines(golden, skip)
	buf.Write(prefix)
	j, err := NewJob(spec, WithWriter(NewJSONL(&buf)), WithSkipCells(skip), WithCache(rc), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("warm resume differs from golden")
	}
	if s := j.Snapshot(); s.CacheHits != int64(len(cells)-skip) {
		t.Errorf("warm resume hits = %d, want %d", s.CacheHits, len(cells)-skip)
	}
}

// prefixLines returns the first n newline-terminated records of b.
func prefixLines(b []byte, n int) []byte {
	off := 0
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(b[off:], '\n')
		off += nl + 1
	}
	return b[:off]
}

// TestCacheCoupledGroupGranularity: in coupled mode the rate group is
// the unit of computation, so evicting ONE member entry must void the
// whole group (all-or-nothing) while other groups still hit.
func TestCacheCoupledGroupGranularity(t *testing.T) {
	spec := &Spec{
		Families: []FamilySpec{{Family: "torus", Size: "4x4"}, {Family: "hypercube", Size: "4"}},
		Measures: []string{"ctoy"},
		Model:    ModelIIDNode,
		RateMode: RateModeCoupled,
		Rates:    []float64{0, 0.2, 0.5},
		Trials:   4,
		Seed:     7,
	}
	cells := len(spec.Cells())
	rates := len(spec.Rates)

	rc, _ := cache.Open(t.TempDir())
	want, cs := runCached(t, spec, rc)
	checkCounters(t, cs, 0, int64(cells))

	// Evict the middle rate of the first group.
	if err := os.Remove(cellEntryPath(rc, spec, 1)); err != nil {
		t.Fatal(err)
	}
	got, s := runCached(t, spec, rc)
	if !bytes.Equal(got, want) {
		t.Fatal("coupled warm run differs after single-member eviction")
	}
	checkCounters(t, s, int64(cells-rates), int64(rates))

	// Keys are mode-disjoint: the same grid run independently must not
	// see coupled entries (and vice versa) — the cache is at least as
	// strict as resume's cross-mode refusal.
	var h cache.Hasher
	c := spec.Cells()[0]
	kc := CellCacheKey(&h, RateModeCoupled, c)
	ki := CellCacheKey(&h, RateModeIndependent, c)
	if kc == ki {
		t.Fatal("coupled and independent keys collide")
	}
}

// TestCacheTrialBlockDisjointKeys: serial (TrialBlock 0) and
// trial-parallel (TrialBlock b) cells encode different fold structures,
// so their keys must differ — matching resume's refusal to splice modes.
func TestCacheTrialBlockDisjointKeys(t *testing.T) {
	spec := trialParSpec()
	c := spec.Cells()[0]
	if c.TrialBlock == 0 {
		t.Fatal("trialParSpec cell has no TrialBlock")
	}
	var h cache.Hasher
	kPar := CellCacheKey(&h, spec.RateMode, c)
	serial := c
	serial.TrialBlock = 0
	kSer := CellCacheKey(&h, spec.RateMode, serial)
	if kPar == kSer {
		t.Fatal("trial-parallel and serial keys collide")
	}
}

// TestCacheTrialParallelWarm: blocked cells write back at fold time;
// a warm rerun must hit every cell and stay byte-identical.
func TestCacheTrialParallelWarm(t *testing.T) {
	spec := trialParSpec()
	want := runJobToBytes(t, spec, 4)
	cells := int64(len(spec.Cells()))

	rc, _ := cache.Open(t.TempDir())
	cold, cs := runCached(t, spec, rc, WithWorkers(4))
	if !bytes.Equal(cold, want) {
		t.Fatal("cold trial-parallel cached run differs from uncached")
	}
	checkCounters(t, cs, 0, cells)
	warm, s := runCached(t, spec, rc, WithWorkers(4))
	if !bytes.Equal(warm, want) {
		t.Fatal("warm trial-parallel run differs")
	}
	checkCounters(t, s, cells, 0)

	// Partial warm: evict every other cell, so hits interleave with
	// multi-block cells that fold on their workers; the rerun must
	// recompute exactly the evicted half, serially and in parallel.
	for _, workers := range []int{1, 4} {
		for i := 0; i < int(cells); i += 2 {
			if err := os.Remove(cellEntryPath(rc, spec, i)); err != nil {
				t.Fatal(err)
			}
		}
		got, s := runCached(t, spec, rc, WithWorkers(workers))
		if !bytes.Equal(got, cold) {
			t.Fatalf("workers=%d: partially warm trial-parallel run differs from cold", workers)
		}
		checkCounters(t, s, cells-cells/2, cells/2)
	}
}

// TestCacheWarmJobCancelledBeforeStart: a job cancelled before Start
// must end cancelled with zero records even when every cell is a cache
// hit — a hit is a unit like any other, and a cancelled dispatch hands
// none of them out.
func TestCacheWarmJobCancelledBeforeStart(t *testing.T) {
	spec := toySpec()
	rc, _ := cache.Open(t.TempDir())
	runCached(t, spec, rc)
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		j, err := NewJob(spec, WithWriter(NewJSONL(&buf)), WithWorkers(workers), WithCache(rc))
		if err != nil {
			t.Fatalf("NewJob: %v", err)
		}
		j.Cancel()
		if err := j.Start(context.Background()); err != nil {
			t.Fatalf("Start: %v", err)
		}
		sum, err := j.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Wait = %v, want context.Canceled", workers, err)
		}
		if s := j.Snapshot(); s.State != JobCancelled || s.CellsDone != 0 || sum.Cells != 0 || buf.Len() != 0 {
			t.Errorf("workers=%d: state %s, %d cells done, %d summarized, %d bytes written; want cancelled with none",
				workers, s.State, s.CellsDone, sum.Cells, buf.Len())
		}
	}
}

// TestCacheErrorCellsNotCached: error records must never be cached — an
// error may be environmental, and a warm run must retry it.
func TestCacheErrorCellsNotCached(t *testing.T) {
	spec := toySpec()
	spec.Measures = []string{"toyerr"}
	spec.Rates = []float64{0, 0.5} // rate 0.5 fails synthetically
	want := runJobToBytes(t, spec, 2)

	rc, _ := cache.Open(t.TempDir())
	cold, _ := runCached(t, spec, rc)
	if !bytes.Equal(cold, want) {
		t.Fatal("cold run with errors differs from uncached")
	}
	warm, s := runCached(t, spec, rc)
	if !bytes.Equal(warm, want) {
		t.Fatal("warm run with errors differs")
	}
	// 3 families × 2 rates: the rate-0 cells hit, the rate-0.5 cells
	// erred and must recompute.
	checkCounters(t, s, 3, 3)
}

// TestCacheSharedFlightConcurrentJobs runs two identical jobs
// concurrently against one cache + one single-flight group (the serve
// configuration) under -race. Both outputs must be byte-identical to
// the reference, and each job must account every cell as hit, miss, or
// in-flight dedup.
func TestCacheSharedFlightConcurrentJobs(t *testing.T) {
	spec := toySpec()
	want := jobRef(t)
	cells := int64(len(spec.Cells()))

	rc, _ := cache.Open(t.TempDir())
	fl := cache.NewFlight()

	const jobs = 3
	outs := make([][]byte, jobs)
	snaps := make([]Snapshot, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			j, err := NewJob(toySpec(), WithWriter(NewJSONL(&buf)), WithWorkers(2),
				WithCache(rc), WithFlight(fl))
			if err != nil {
				t.Errorf("NewJob: %v", err)
				return
			}
			if err := j.Start(context.Background()); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			if _, err := j.Wait(); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			outs[i] = buf.Bytes()
			snaps[i] = j.Snapshot()
		}(i)
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		if !bytes.Equal(outs[i], want) {
			t.Errorf("job %d output differs from reference", i)
		}
		if got := snaps[i].CacheHits + snaps[i].CacheMisses + snaps[i].CacheInflight; got != cells {
			t.Errorf("job %d: hits %d + misses %d + inflight %d = %d, want %d",
				i, snaps[i].CacheHits, snaps[i].CacheMisses, snaps[i].CacheInflight, got, cells)
		}
	}
	// Warm verification: the shared cache now holds everything.
	warm, s := runCached(t, spec, rc)
	if !bytes.Equal(warm, want) {
		t.Fatal("post-concurrent warm run differs")
	}
	checkCounters(t, s, cells, 0)
}

// TestCachedMaskDryRun pins the planning view used by sweep -dry-run.
func TestCachedMaskDryRun(t *testing.T) {
	spec := toySpec()
	rc, _ := cache.Open(t.TempDir())

	mask := spec.CachedMask(Shard{}, rc)
	for i, m := range mask {
		if m {
			t.Fatalf("empty cache reports cell %d cached", i)
		}
	}
	runCached(t, spec, rc)
	mask = spec.CachedMask(Shard{}, rc)
	for i, m := range mask {
		if !m {
			t.Fatalf("warm cache reports cell %d uncached", i)
		}
	}
	// Evict one entry; exactly that cell flips.
	if err := os.Remove(cellEntryPath(rc, spec, 4)); err != nil {
		t.Fatal(err)
	}
	mask = spec.CachedMask(Shard{}, rc)
	for i, m := range mask {
		if want := i != 4; m != want {
			t.Errorf("after evicting cell 4: mask[%d] = %v", i, m)
		}
	}
}
