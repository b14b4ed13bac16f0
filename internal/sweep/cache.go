package sweep

// The sweep side of the content-addressed result cache
// (internal/cache): key derivation and payload verification. Every
// record the engine emits is a pure function of its cell's semantic
// identity — that is the byte-determinism contract the whole repo
// defends — so a record computed once never needs computing again,
// provided the cache key captures *everything* that could change the
// bytes. CellCacheKey folds in:
//
//   - KernelVersion — a stamp bumped whenever any measure kernel, the
//     fault-injection path, the aggregation fold, or the JSON encoding
//     could change output bytes. Bumping it orphans (not corrupts)
//     every existing entry: old entries simply stop being found.
//   - the full cell identity: family (name, size, k), measure, model,
//     rate (exact bit pattern), trials, the derived cell seed, the
//     precision tier, and the trial-block partition.
//   - the spec's rate mode: a coupled cell's bytes come from a
//     different draw scheme than an independent cell's, so the two
//     modes never share entries — the cache is at least as strict as
//     resume, which likewise refuses cross-mode splicing.
//
// The payload under a key is the cell's exact JSONL record (json.
// Marshal of its Result, no trailing newline). Byte-identity of warm
// runs follows from the repo's JSON round-trip stability: re-marshaling
// an unmarshaled Result reproduces the original bytes (fixed field
// order, sorted metric keys, shortest round-trip floats) — and
// CachedResult verifies exactly that before a stored record is ever
// emitted.

import (
	"encoding/json"

	"faultexp/internal/cache"
)

// KernelVersion stamps every cache key with the generation of the
// measurement kernels. Bump it whenever a change could alter any
// emitted byte for an unchanged cell: measure kernels, fault models,
// seed derivation, stats folds, or the Result JSON encoding. Stale
// entries are then never found (their keys differ), so a version bump
// costs one cold run, never a wrong byte.
const KernelVersion = "fx-kernels-v9"

// CellCacheKey derives the content address of one cell's output record.
// The hasher is caller-supplied so a loop over a grid reuses one buffer
// (the key path is allocation-free — see BenchmarkCacheKeyHash).
// rateMode is the spec's rate mode ("" normalizes to independent).
func CellCacheKey(h *cache.Hasher, rateMode string, c Cell) cache.Key {
	if rateMode == "" {
		rateMode = RateModeIndependent
	}
	h.Reset()
	h.Field(KernelVersion)
	h.Field(rateMode)
	h.Field(c.Family.Family)
	h.Field(c.Family.Size)
	h.Int(int64(c.Family.K))
	h.Field(c.Measure)
	h.Field(c.Model)
	h.Float(c.Rate)
	h.Int(int64(c.Trials))
	h.Uint(c.Seed)
	// Precision as two ints (not Precision.String(), which allocates):
	// -1 = exact, otherwise the sampled K.
	if c.Precision.Sampled {
		h.Int(int64(c.Precision.K))
	} else {
		h.Int(-1)
	}
	h.Int(int64(c.TrialBlock))
	return h.Sum()
}

// CachedResult decodes and verifies one cache payload against the cell
// it is supposed to reproduce. ok=false (treat as a miss, recompute)
// unless every check passes:
//
//   - the payload unmarshals as a Result that passes CheckRecord's
//     identity checks against the cell — seed, trials, trial block,
//     family, size, measure, model, rate, precision — so an entry can
//     never masquerade as a different cell's record, whatever happened
//     on disk (the kernel stamp is not compared again: the key already
//     folds in KernelVersion, so only this generation finds the entry);
//   - the record carries no Err (error records are never cached: an
//     error may be environmental, and recomputing one is cheap);
//   - re-marshaling the decoded Result reproduces the stored payload
//     byte-for-byte, which proves emitting it through any Writer
//     yields exactly the bytes a cold run would.
func CachedResult(payload []byte, c *Cell) (*Result, bool) {
	var r Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, false
	}
	if r.Err != "" || checkCell(&r, c) != nil {
		return nil, false
	}
	again, err := json.Marshal(&r)
	if err != nil || string(again) != string(payload) {
		return nil, false
	}
	return &r, true
}

// probeCache looks up every cell and returns the decoded, verified
// results, index-aligned with cells (nil = miss, compute). keys must be
// index-aligned CellCacheKey values. In coupled mode a rate group (the
// groupSize consecutive cells of one family × measure × model) is the
// unit of computation, so a group hits all-or-nothing: a single missing
// member voids the group's hits and the whole group recomputes.
func probeCache(rc *cache.Cache, cells []Cell, keys []cache.Key, groupSize int) []*Result {
	hits := make([]*Result, len(cells))
	for i := range cells {
		if payload, ok := rc.Get(keys[i]); ok {
			if r, ok := CachedResult(payload, &cells[i]); ok {
				hits[i] = r
			}
		}
	}
	if groupSize > 1 {
		for s := 0; s+groupSize <= len(cells); s += groupSize {
			full := true
			for i := s; i < s+groupSize; i++ {
				if hits[i] == nil {
					full = false
					break
				}
			}
			if !full {
				for i := s; i < s+groupSize; i++ {
					hits[i] = nil
				}
			}
		}
	}
	return hits
}

// CachedMask reports, for each cell of the spec's (sharded) cell
// sequence, whether a warm run with rc would emit it from the cache —
// the -dry-run planning view. It applies the same verification and
// coupled-group granularity as the run itself.
func (s *Spec) CachedMask(sh Shard, rc *cache.Cache) []bool {
	cells := s.ShardCells(sh)
	keys := make([]cache.Key, len(cells))
	var h cache.Hasher
	for i := range cells {
		keys[i] = CellCacheKey(&h, s.RateMode, cells[i])
	}
	group := 1
	if s.Coupled() {
		group = len(s.Rates)
	}
	hits := probeCache(rc, cells, keys, group)
	mask := make([]bool, len(cells))
	for i, r := range hits {
		mask[i] = r != nil
	}
	return mask
}
