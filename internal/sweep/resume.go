package sweep

// Resumable sweeps. A sweep's JSONL output is an append-only stream in
// deterministic cell order, and every record carries its cell's
// semantic seed — so an interrupted run can be picked up by scanning
// the file, verifying each leading record against the run's cell
// sequence (CheckRecord pins a record to its exact position),
// truncating any mid-write partial line, and executing only the
// remainder. Because a cell's bytes depend solely on (grid seed, cell
// key), the resumed file is byte-identical to an uninterrupted run;
// the same holds per shard, so resume composes with `-shard i/m` +
// `merge` unchanged.

import (
	"errors"
	"fmt"
	"io"

	"faultexp/internal/gen"
)

// ResumeState describes the usable prefix of an existing JSONL output.
type ResumeState struct {
	// Done is how many leading records are complete and verified
	// against the run's cell sequence — the cells to skip.
	Done int
	// Offset is the byte offset where the verified prefix ends; the
	// file must be truncated here and appended to from here.
	Offset int64
	// Truncated reports that a trailing partial record (a mid-write
	// kill) was found after the verified prefix and will be overwritten.
	Truncated bool
}

// CheckRecord reports whether res is the record of cell c, computed by
// this binary's kernels, returning nil if it is and an error naming the
// first differing field if not. It compares the kernel stamp, since the
// same cell computed by another kernel generation can differ in any
// byte; then every identity field: the seed; the trial budget and the
// trial-parallel block partition, which the seed does not pin but
// which change a record's bytes; and the family, size, measure, model,
// rate and precision tier the seed was derived from, so a record whose
// coordinates were edited is refused too. This is the identity rule
// every consumer of a record stream applies — resume, merge and the
// fleet coordinator's online check and store rebuild; the error leaves
// the record's position to the caller.
func CheckRecord(res *Result, c *Cell) error {
	if res.Kernel != KernelVersion {
		return fmt.Errorf("has kernel stamp %s, this binary runs %q — output of another kernel generation does not splice", stampName(res.Kernel), KernelVersion)
	}
	return checkCell(res, c)
}

// stampName renders a record's kernel stamp for an error message.
func stampName(kernel string) string {
	if kernel == "" {
		return "none (written before records carried one)"
	}
	return fmt.Sprintf("%q", kernel)
}

// checkCell is CheckRecord without the kernel stamp.
func checkCell(res *Result, c *Cell) error {
	switch {
	case res.Seed != c.Seed:
		return fmt.Errorf("is %s/%s/%s rate %s seed %d, want seed %d — output from a different spec, seed, or shard, or shard files out of order",
			res.Family, res.Measure, res.Model, rateToken(res.Rate), res.Seed, c.Seed)
	case res.Trials != c.Trials:
		// Growing -trials keeps every seed, so this is what stops cheap
		// old cells from splicing into an expensive new run.
		return fmt.Errorf("ran %d trials, spec wants %d — output from a different trial budget", res.Trials, c.Trials)
	case res.TrialBlock != c.TrialBlock:
		// Blocked stream merges differ from the serial fold in the last
		// ulp, so the partition is part of the record's byte contract.
		return fmt.Errorf("used trial blocks of %d, spec wants %d — serial and trial-parallel output do not splice", res.TrialBlock, c.TrialBlock)
	case res.Family != c.Family.Family:
		return edited("family", res.Family, c.Family.Family)
	case res.Size != c.Family.Size:
		return edited("size", res.Size, c.Family.Size)
	case res.Measure != c.Measure:
		return edited("measure", res.Measure, c.Measure)
	case res.Model != c.Model:
		return edited("model", res.Model, c.Model)
	case res.Rate != c.Rate:
		return edited("rate", rateToken(res.Rate), rateToken(c.Rate))
	case res.Precision != c.recordPrecision():
		return edited("precision", res.Precision, c.recordPrecision())
	}
	return nil
}

// edited is CheckRecord's error for an identity field that differs
// while the seed matches: the record was altered after it was written.
func edited(field, got, want string) error {
	return fmt.Errorf("has %s %q with the seed of %s %q — the record was altered", field, got, field, want)
}

// ScanResume validates an existing JSONL output stream against the
// run's cell sequence (the spec expanded, shard already applied — see
// Spec.ShardCells) and returns how many leading cells are already
// complete and where appending must start.
//
// The scan applies RecordReader's rule and refuses mismatches rather
// than guessing: a record that fails CheckRecord against its cell
// position means the file was produced by a different spec, seed,
// shard, trial budget, block partition or kernel generation; a
// malformed record means
// corruption; more records than cells means the wrong spec. Only a torn
// tail — the signature of a killed write — is treated as incomplete
// and marked for truncation.
func ScanResume(r io.Reader, cells []Cell) (ResumeState, error) {
	rr := NewRecordReader(r, cells)
	var err error
	for err == nil {
		_, _, err = rr.Next()
	}
	st := ResumeState{Done: rr.Index, Offset: rr.Offset, Truncated: errors.Is(err, ErrTorn)}
	if err != io.EOF && !st.Truncated {
		return st, fmt.Errorf("sweep: resume: %w — refusing to resume", err)
	}
	return st, nil
}

// ShardCells expands the grid and applies the shard's round-robin
// selection — the exact cell sequence (order and identity) a run with
// that shard executes and streams. This is the sequence ScanResume
// verifies against.
func (s *Spec) ShardCells(sh Shard) []Cell {
	cells := s.Cells()
	if !sh.Enabled() {
		return cells
	}
	kept := make([]Cell, 0, shardLineCount(len(cells), sh.Index, sh.Count))
	for _, c := range cells {
		if c.Index%sh.Count == sh.Index {
			kept = append(kept, c)
		}
	}
	return kept
}

// Plan describes what a run would execute, without executing it — the
// `sweep -dry-run` surface.
type Plan struct {
	// GridCells is the full grid size (families × measures × models ×
	// rates); RunCells is what remains after shard selection, and
	// RunTrials = RunCells × Trials is the Monte-Carlo volume this run
	// would pay for.
	GridCells int
	RunCells  int
	RunTrials int
	// Families lists the distinct family graphs this run would build
	// (only families appearing in the sharded cell set), in cell order.
	Families []string
	Measures []string
	Models   []string
	Rates    []float64
	Trials   int
	Seed     uint64
	Shard    Shard
	// Precision is the run's measurement tier.
	Precision Precision
	// FamilyPlans carries, per distinct family (parallel to Families),
	// the estimated vertex/edge counts and peak build memory, so a user
	// can see whether a million-vertex spec fits before launching.
	FamilyPlans []FamilyPlan
}

// FamilyPlan is the dry-run estimate for one family graph.
type FamilyPlan struct {
	// Token is the family:size[:k] token (matches Families).
	Token string
	// N and M are the estimated vertex and (upper-bound) edge counts.
	N, M int64
	// PeakBytes estimates the peak resident footprint of building and
	// measuring the graph (CSR + construction transient + workspace).
	PeakBytes int64
	// Fits reports whether the family passes the run's size budget
	// (exact or sampled tier).
	Fits bool
	// CellCost is the estimated relative cost of ONE cell of this
	// family (UnitCost at the run's trial budget and precision),
	// surfaced so a dry run can compare the families' sizes; it is not
	// seconds.
	CellCost float64
	// Err carries the estimate failure for families the registry
	// cannot size without building (estimates then read zero).
	Err string
}

// EstimatePeakBytes estimates the peak resident footprint of building
// and sweeping one family graph with n vertices and m undirected
// edges: the CSR graph itself (4(n+1)+8m), the Builder's staging
// arrays while constructing (16m+8n — direct-CSR families skip this,
// so it is an upper bound), and a trial Workspace (two CSR slots,
// visited/labels/dist arrays, masks: ≈29n+16m).
func EstimatePeakBytes(n, m int64) int64 {
	graphBytes := 4*(n+1) + 8*m
	builderBytes := 16*m + 8*n
	workspaceBytes := 29*n + 16*m
	return graphBytes + builderBytes + workspaceBytes
}

// Plan expands the grid under the given shard and summarizes it. The
// spec must already validate; Validate is re-run defensively.
func (s *Spec) Plan(sh Shard) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	if err := sh.Validate(); err != nil {
		return Plan{}, err
	}
	cells := s.ShardCells(sh)
	p := Plan{
		GridCells: len(s.Cells()),
		RunCells:  len(cells),
		RunTrials: len(cells) * s.Trials,
		Measures:  append([]string(nil), s.Measures...),
		Models:    append([]string(nil), s.Models...),
		Rates:     append([]float64(nil), s.Rates...),
		Trials:    s.Trials,
		Seed:      s.Seed,
		Shard:     sh,
	}
	p.Precision = s.precision()
	budget := gen.DefaultBudget
	if p.Precision.Sampled {
		budget = gen.SampledBudget
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := c.Family.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		p.Families = append(p.Families, key)
		fp := FamilyPlan{Token: key}
		n, m, err := gen.EstimateFamily(c.Family.Family, c.Family.Size, c.Family.K)
		if err != nil {
			fp.Err = err.Error()
		} else {
			fp.N, fp.M = n, m
			fp.PeakBytes = EstimatePeakBytes(n, m)
			fp.Fits = n <= budget.MaxV && m <= budget.MaxE
			fp.CellCost = UnitCost(n, m, s.Trials, p.Precision)
		}
		p.FamilyPlans = append(p.FamilyPlans, fp)
	}
	return p, nil
}
