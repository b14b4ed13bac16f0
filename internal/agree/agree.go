// Package agree implements almost-everywhere agreement — the third §1.3
// application: "as long as the original network still has a large
// connected component of almost the same expansion, one can still
// achieve almost everywhere agreement, which is an important
// prerequisite for fundamental primitives such as atomic broadcast,
// Byzantine agreement, and clock synchronization" (citing Dwork–Peleg–
// Pippenger–Upfal [9], Upfal [28], Ben-Or–Ron [4]).
//
// The protocol is synchronous iterated majority: every honest node
// repeatedly replaces its value with the majority of its own value and
// its neighbours' reports. Byzantine nodes report the global minority
// value to every neighbour, every round — the strongest static lie for
// this dynamic. On expanders this converges to the honest initial
// majority everywhere except O(t) nodes near the faults; on
// poor-expansion graphs (chains, paths) local majorities freeze into
// stable stripes and global agreement never forms — the same
// expansion-driven separation as the paper's pruning results, at the
// protocol level.
package agree

import (
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// Instance is one agreement execution: a network, a Byzantine set, and
// per-node boolean opinions.
type Instance struct {
	G         *graph.Graph
	Byzantine []bool // node → is Byzantine
	Value     []bool // current opinion (meaningful for honest nodes)
	minority  bool   // the value Byzantine nodes push
}

// NewInstance initializes an execution: each honest node independently
// starts at true with probability pTrue; byz lists the Byzantine nodes,
// which always report the minority of the honest initial values.
func NewInstance(g *graph.Graph, byz []int, pTrue float64, rng *xrand.RNG) *Instance {
	n := g.N()
	inst := &Instance{
		G:         g,
		Byzantine: make([]bool, n),
		Value:     make([]bool, n),
	}
	for _, v := range byz {
		inst.Byzantine[v] = true
	}
	ones := 0
	honest := 0
	startTrue := xrand.NewBernoulli(pTrue)
	for v := 0; v < n; v++ {
		if inst.Byzantine[v] {
			continue
		}
		honest++
		if startTrue.Next(rng) {
			inst.Value[v] = true
			ones++
		}
	}
	// The adversary pushes whichever value is the honest minority.
	inst.minority = ones*2 < honest
	return inst
}

// HonestMajority returns the majority value among honest nodes' *initial*
// assignment target — i.e. the complement of what the adversary pushes.
func (inst *Instance) HonestMajority() bool { return !inst.minority }

// Step runs one synchronous round: every honest node takes the majority
// of {own value} ∪ {neighbour reports}, where Byzantine neighbours
// report the adversary's value. Ties keep the node's current value.
func (inst *Instance) Step() {
	n := inst.G.N()
	next := make([]bool, n)
	for v := 0; v < n; v++ {
		if inst.Byzantine[v] {
			continue
		}
		yes, no := 0, 0
		if inst.Value[v] {
			yes++
		} else {
			no++
		}
		for _, w := range inst.G.Neighbors(v) {
			var report bool
			if inst.Byzantine[w] {
				report = inst.minority
			} else {
				report = inst.Value[w]
			}
			if report {
				yes++
			} else {
				no++
			}
		}
		switch {
		case yes > no:
			next[v] = true
		case no > yes:
			next[v] = false
		default:
			next[v] = inst.Value[v]
		}
	}
	for v := 0; v < n; v++ {
		if !inst.Byzantine[v] {
			inst.Value[v] = next[v]
		}
	}
}

// Run executes rounds steps and returns the final agreement fraction.
func (inst *Instance) Run(rounds int) float64 {
	for i := 0; i < rounds; i++ {
		inst.Step()
	}
	return inst.AgreementFraction()
}

// AgreementFraction returns the fraction of honest nodes currently
// holding the honest initial majority — 1 means everywhere agreement;
// "almost everywhere" means 1 − O(t/n).
func (inst *Instance) AgreementFraction() float64 {
	want := inst.HonestMajority()
	honest, agree := 0, 0
	for v := 0; v < inst.G.N(); v++ {
		if inst.Byzantine[v] {
			continue
		}
		honest++
		if inst.Value[v] == want {
			agree++
		}
	}
	if honest == 0 {
		return 0
	}
	return float64(agree) / float64(honest)
}
