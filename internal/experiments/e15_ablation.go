package experiments

// E15 (extension) — ablation of the cut-finder suite that realises the
// paper's existential "∃S_i" step (the one place Prune substitutes a
// heuristic for the paper's existential choice, so the one place
// heuristic power matters). On benchmark graphs
// with known-planted or exactly-solvable sparse cuts, we compare the
// full finder against versions with the spectral sweep, the BFS balls,
// or the local search disabled. The full suite must never be worse than
// any ablation, and each layer must be the unique winner somewhere —
// the justification for running all of them inside Prune.

import (
	"faultexp/internal/cuts"
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/stats"
	"faultexp/internal/xrand"
)

// E15 builds the cut-finder ablation experiment.
func E15() *harness.Experiment {
	e := &harness.Experiment{
		ID:          "E15",
		Title:       "Cut-finder ablation (the ∃S_i realisation)",
		PaperRef:    "∃S_i step of Prune/Prune2 (extension experiment)",
		Expectation: "full suite ≤ every ablation on every instance; each layer wins somewhere",
	}
	e.Run = func(cfg harness.Config) *harness.Report {
		rep := e.NewReport()
		rng := cfg.RNG()

		side := cfg.Pick(8, 12)
		twoTori := func() *graph.Graph {
			a := gen.Torus(side, side)
			n := a.N()
			b := graph.NewBuilder(2 * n)
			a.ForEachEdge(func(u, v int) {
				b.AddEdge(u, v)
				b.AddEdge(n+u, n+v)
			})
			b.AddEdge(0, n)
			return b.Build()
		}
		instances := []struct {
			name string
			g    *graph.Graph
		}{
			{"torus", gen.Torus(side, side)},
			{"two-tori-bridge", twoTori()},
			{"chain-k6", gen.ChainReplace(gen.GabberGalil(4), 6).G},
			{"rr4", gen.ConnectedRandomRegular(side*side, 4, rng.Split())},
		}
		variants := []struct {
			name string
			mod  func(o cuts.Options) cuts.Options
		}{
			{"full", func(o cuts.Options) cuts.Options { return o }},
			{"no-sweep", func(o cuts.Options) cuts.Options { o.DisableSweep = true; return o }},
			{"no-balls", func(o cuts.Options) cuts.Options { o.DisableBalls = true; return o }},
			{"no-local", func(o cuts.Options) cuts.Options { o.DisableLocalSearch = true; return o }},
		}

		tbl := stats.NewTable("E15: best edge quotient found, per finder variant",
			"instance", "n", "full", "no-sweep", "no-balls", "no-local")
		fullNeverWorse := true
		uniqueLosses := map[string]bool{} // ablations that lost somewhere
		for _, inst := range instances {
			// Every variant sees the same incoming RNG state; the finder
			// isolates per-layer randomness internally, so the full
			// suite's candidate pool is the union of the ablations'.
			instSeed := rng.Uint64()
			quots := make([]float64, len(variants))
			for vi, v := range variants {
				o := v.mod(cuts.Options{RNG: xrand.New(instSeed), ExactMaxN: 2}) // force heuristics
				r, ok := cuts.FindBest(inst.g, cuts.EdgeMode, inst.g.N()/2, false, o)
				if !ok {
					quots[vi] = -1
					continue
				}
				quots[vi] = r.EdgeAlpha
			}
			for vi := 1; vi < len(variants); vi++ {
				if quots[0] > quots[vi]+1e-9 {
					fullNeverWorse = false
				}
				if quots[vi] > quots[0]+1e-9 {
					uniqueLosses[variants[vi].name] = true
				}
			}
			tbl.AddRow(inst.name, fmtI(inst.g.N()),
				fmtF(quots[0]), fmtF(quots[1]), fmtF(quots[2]), fmtF(quots[3]))
		}
		tbl.AddNote("lower is better (smaller quotient = better bottleneck found); exact DP disabled to expose the heuristics")
		rep.AddTable(tbl)
		rep.Checkf(fullNeverWorse, "full-suite-dominates",
			"the full suite found a quotient ≤ every ablation on every instance")
		rep.Checkf(len(uniqueLosses) >= 1, "layers-contribute",
			"ablations that lost somewhere: %d of 3 (each disabled layer costs quality on some instance)",
			len(uniqueLosses))
		return rep
	}
	return e
}
