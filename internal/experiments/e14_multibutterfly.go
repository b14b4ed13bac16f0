package experiments

// E14 (extension) — the Leighton–Maggs [17] baseline from the paper's
// §1.1: after f worst-case faults, a multibutterfly still connects
// n − O(f) inputs to n − O(f) outputs, whereas the plain butterfly —
// whose input-output paths are unique — loses whole subtrees to the same
// budget. We attack both networks with level-targeted faults and compare
// the number of surviving well-connected inputs.

import (
	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/harness"
	"faultexp/internal/stats"
)

// E14 builds the multibutterfly-baseline experiment.
func E14() *harness.Experiment {
	e := &harness.Experiment{
		ID:          "E14",
		Title:       "Multibutterfly vs butterfly under targeted faults",
		PaperRef:    "§1.1 (Leighton–Maggs [17] baseline; extension experiment)",
		Expectation: "multibutterfly keeps n−O(f) well-connected inputs; butterfly loses a multiple",
	}
	e.Run = func(cfg harness.Config) *harness.Report {
		rep := e.NewReport()
		rng := cfg.RNG()
		d := cfg.Pick(5, 7)
		rows := 1 << uint(d)
		mb := gen.Multibutterfly(d, 2, rng.Split())
		bf := gen.Butterfly(d)
		bfInputs := make([]int, rows)
		bfOutputs := make([]int, rows)
		for r := 0; r < rows; r++ {
			bfInputs[r] = gen.ButterflyID(d, 0, r)
			bfOutputs[r] = gen.ButterflyID(d, d, r)
		}

		// Scratch for wellConnectedInputs: both networks have (d+1)·2^d
		// vertices.
		newID := make([]int32, bf.N())
		ws := graph.NewWorkspace()

		budgets := []int{rows / 16, rows / 8, rows / 4}
		tbl := stats.NewTable("E14: well-connected inputs after the level-1 pair attack",
			"f", "inputs", "mbGood", "mbLost", "bfGood", "bfLost", "lost/f(mb)", "lost/f(bf)")
		mbLinear := true
		mbBeatsBf := 0
		bfHurt := 0
		for _, f := range budgets {
			if f < 2 {
				continue
			}
			// Worst-case attack for the butterfly: fail level-1 nodes in
			// sibling pairs. Butterfly input (0,r) has exactly two
			// level-1 neighbours, (1,r) and (1,r⊕1); failing rows
			// {0..f-1} (f even) disconnects inputs 0..f-1 *entirely*.
			// The multibutterfly's inputs have 2·mult randomly-wired
			// level-1 neighbours, so the same budget barely scratches it
			// — the Leighton–Maggs redundancy argument in action.
			pat := levelOnePairFaults(rows, f)
			mbGood := wellConnectedInputs(mb.G.RemoveVertices(pat), mb.Inputs, mb.Outputs, newID, ws)
			bfGood := wellConnectedInputs(bf.RemoveVertices(pat), bfInputs, bfOutputs, newID, ws)
			mbLost := rows - mbGood
			bfLost := rows - bfGood
			if mbLost > f/2 {
				mbLinear = false
			}
			if mbLost < bfLost {
				mbBeatsBf++
			}
			if bfLost >= f/2 {
				bfHurt++
			}
			tbl.AddRow(fmtI(f), fmtI(rows), fmtI(mbGood), fmtI(mbLost),
				fmtI(bfGood), fmtI(bfLost),
				fmtF(float64(mbLost)/float64(f)), fmtF(float64(bfLost)/float64(f)))
		}
		tbl.AddNote("good input = reaches ≥ 1/2 of the surviving outputs; attack = level-1 sibling pairs")
		rep.AddTable(tbl)
		rep.Checkf(mbLinear, "multibutterfly-n-minus-Of",
			"multibutterfly lost ≤ f/2 inputs at every budget (Leighton–Maggs shape)")
		rep.Checkf(mbBeatsBf == len(budgets), "multibutterfly-beats-butterfly",
			"multibutterfly lost strictly fewer inputs than the butterfly at %d/%d budgets",
			mbBeatsBf, len(budgets))
		rep.Checkf(bfHurt == len(budgets), "butterfly-unique-paths-fail",
			"the same budget disconnected ≥ f/2 butterfly inputs at %d/%d budgets (unique-path fragility)",
			bfHurt, len(budgets))
		return rep
	}
	return e
}

// levelOnePairFaults fails the first f level-1 nodes (rows 0..f-1) of a
// (multi)butterfly with the given row count — sibling pairs (r, r⊕1)
// that sever butterfly inputs completely.
func levelOnePairFaults(rows, f int) []int {
	if f > rows {
		f = rows
	}
	out := make([]int, f)
	for r := 0; r < f; r++ {
		out[r] = 1*rows + r
	}
	return out
}
