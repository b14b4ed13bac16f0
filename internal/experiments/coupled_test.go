package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"faultexp/internal/sweep"
	"faultexp/internal/xrand"
)

// coupledSpec is a small real grid in coupled rate mode: both iid models
// across the three coupled-capable measures, with an unsorted rate axis
// so the highest-rate-first walk is exercised.
func coupledSpec(measures ...string) *sweep.Spec {
	return &sweep.Spec{
		Families: []sweep.FamilySpec{
			{Family: "torus", Size: "5x5"},
			{Family: "hypercube", Size: "4"},
		},
		Measures: measures,
		Models:   []string{sweep.ModelIIDNode, sweep.ModelIIDEdge},
		Rates:    []float64{0.1, 0.3, 0.05, 0.2},
		Trials:   3,
		Seed:     20040627,
		RateMode: sweep.RateModeCoupled,
	}
}

// TestCoupledDeterministicAcrossWorkers pins the coupled mode's core
// guarantee: group dispatch and ordered emission make the output
// byte-identical for any worker count.
func TestCoupledDeterministicAcrossWorkers(t *testing.T) {
	spec := coupledSpec("percolation", "shatter", "residual")
	ref := runJSONL(t, spec, 1)
	for _, workers := range []int{3, runtime.GOMAXPROCS(0)} {
		if got := runJSONL(t, spec, workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d coupled output differs from workers=1", workers)
		}
	}
}

// TestCoupledRecordOrderMatchesCells verifies the coupled path emits one
// record per grid cell, in exactly the independent cell order, with the
// cell's own seed — so downstream tooling cannot tell the modes apart
// structurally.
func TestCoupledRecordOrderMatchesCells(t *testing.T) {
	spec := coupledSpec("percolation", "shatter")
	out := runJSONL(t, spec, 2)
	cells := spec.Cells()
	dec := json.NewDecoder(bytes.NewReader(out))
	i := 0
	for dec.More() {
		var r sweep.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if i >= len(cells) {
			t.Fatalf("more records than cells (%d)", len(cells))
		}
		c := cells[i]
		if r.Family != c.Family.Family || r.Measure != c.Measure || r.Model != c.Model || r.Rate != c.Rate || r.Seed != c.Seed {
			t.Fatalf("record %d = %s/%s/%s rate %v seed %d, want cell %s/%s/%s rate %v seed %d",
				i, r.Family, r.Measure, r.Model, r.Rate, r.Seed,
				c.Family.Family, c.Measure, c.Model, c.Rate, c.Seed)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("record %d has no metrics: %+v", i, r)
		}
		i++
	}
	if i != len(cells) {
		t.Fatalf("got %d records, want %d", i, len(cells))
	}
}

// TestCoupledGammaMonotone pins the coupling property itself: within
// one trial the fault set only grows with the rate, so γ (and here its
// mean over identical trial sets) is nonincreasing along the rate axis.
// Independent mode guarantees this only statistically; coupled mode
// guarantees it per realization.
func TestCoupledGammaMonotone(t *testing.T) {
	spec := coupledSpec("percolation", "shatter")
	out := runJSONL(t, spec, 1)
	// Collect gamma_mean by (measure, model) in ascending-rate order.
	type key struct{ measure, model string }
	byRate := map[key]map[float64]float64{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var r sweep.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Family != "torus" {
			continue
		}
		k := key{r.Measure, r.Model}
		if byRate[k] == nil {
			byRate[k] = map[float64]float64{}
		}
		byRate[k][r.Rate] = r.Metrics["gamma_mean"]
	}
	rates := []float64{0.05, 0.1, 0.2, 0.3}
	for k, m := range byRate {
		for i := 1; i < len(rates); i++ {
			lo, hi := m[rates[i-1]], m[rates[i]]
			if hi > lo {
				t.Errorf("%s/%s: gamma_mean rose from %v at rate %v to %v at rate %v", k.measure, k.model, lo, rates[i-1], hi, rates[i])
			}
		}
	}
}

// TestCoupledSpecValidation covers the opt-in gate: unknown mode tokens,
// non-iid models, and measures without a coupled implementation are all
// rejected at validation time, and the coupled unit of work refuses to
// shard or resume mid-group.
func TestCoupledSpecValidation(t *testing.T) {
	base := func() *sweep.Spec { return coupledSpec("percolation") }

	s := base()
	s.RateMode = "entangled"
	if err := s.Validate(); err == nil {
		t.Error("unknown rate_mode accepted")
	}

	s = base()
	s.Models = []string{sweep.ModelAdversarial}
	if err := s.Validate(); err == nil {
		t.Error("coupled mode accepted a non-iid model")
	}

	s = base()
	s.Measures = []string{"gamma"}
	if err := s.Validate(); err == nil {
		t.Error("coupled mode accepted a measure without a coupled implementation")
	}

	s = base()
	if _, err := sweep.NewJob(s, sweep.WithShard(sweep.Shard{Index: 0, Count: 2})); err == nil {
		t.Error("coupled mode accepted a shard")
	}
	if _, err := sweep.NewJob(s, sweep.WithSkipCells(1)); err == nil {
		t.Error("coupled mode accepted a cell-granular skip")
	}
}

// TestIndependentRateModeAliasesDefault pins the tentpole's
// compatibility half: "rate_mode": "independent" is byte-identical to
// leaving the field unset.
func TestIndependentRateModeAliasesDefault(t *testing.T) {
	def := gridSpec("gamma", "percolation")
	ref := runJSONL(t, def, 2)
	ind := gridSpec("gamma", "percolation")
	ind.RateMode = sweep.RateModeIndependent
	if got := runJSONL(t, ind, 2); !bytes.Equal(got, ref) {
		t.Error(`"rate_mode": "independent" output differs from the default`)
	}
}

// TestCoupledRunMatchesThresholds drives coupledSweep.run against its
// definition on random rate axes: the draws are crng's, in element
// order; the positions come highest rate first, each once; at each
// position the elements added so far are exactly {e : u[e] ≥ rate},
// each added at most once, and alive counts them. One sweep runs every
// element count in turn, so its scratch is reused after growing and
// shrinking.
func TestCoupledRunMatchesThresholds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for axis := 0; axis < 60; axis++ {
		var cells []sweep.Cell
		seen := map[float64]bool{}
		pick := func(rate float64) {
			if !seen[rate] {
				seen[rate] = true
				cells = append(cells, sweep.Cell{Rate: rate})
			}
		}
		seeds := []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		if axis%2 == 0 {
			pick(0)
		}
		if axis%3 == 0 {
			pick(1)
		}
		if axis%4 == 1 {
			// A rate equal to one of the first run's draws: that element
			// must be active from this position on.
			tie := xrand.New(seeds[0])
			for k := r.Intn(1000); k > 0; k-- {
				tie.Float64()
			}
			pick(tie.Float64())
		}
		for points := 1 + r.Intn(40); len(cells) < points; {
			pick(r.Float64())
		}
		r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		cs := newCoupledSweep(cells)
		for i, elements := range []int{1000, 0, 1, 2} {
			crng, draws := xrand.New(seeds[i]), xrand.New(seeds[i])
			added := make([]int, elements)
			visited := make([]bool, len(cells))
			prev := 2.0
			err := cs.run(elements, crng, func(e int) { added[e]++ }, func(ri, alive int) error {
				rate := cells[ri].Rate
				if visited[ri] || rate >= prev {
					t.Fatalf("axis %d, %d elements: position %d (rate %v) visited after rate %v", axis, elements, ri, rate, prev)
				}
				visited[ri], prev = true, rate
				want := 0
				for e, n := range added {
					if n > 1 {
						t.Fatalf("axis %d, %d elements: element %d added %d times", axis, elements, e, n)
					}
					if (n == 1) != (cs.u[e] >= rate) {
						t.Fatalf("axis %d, %d elements, rate %v: element %d (draw %v) added %d times", axis, elements, rate, e, cs.u[e], n)
					}
					want += n
				}
				if alive != want {
					t.Fatalf("axis %d, %d elements, rate %v: alive %d, want %d", axis, elements, rate, alive, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for ri, ok := range visited {
				if !ok {
					t.Fatalf("axis %d, %d elements: position %d never measured", axis, elements, ri)
				}
			}
			for e := 0; e < elements; e++ {
				if want := draws.Float64(); cs.u[e] != want {
					t.Fatalf("axis %d, %d elements: u[%d] = %v, want crng's draw %v", axis, elements, e, cs.u[e], want)
				}
			}
		}
	}
}
