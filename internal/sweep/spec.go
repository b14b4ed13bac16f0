// Package sweep is the declarative parameter-grid engine: it expands a
// grid spec (graph family × size × fault model × fault rate × trials)
// into cells, derives a deterministic per-cell RNG seed by hash-splitting
// (xrand.SeedFor), executes the cells on a bounded worker pool, and
// streams the results incrementally through pluggable JSONL/CSV writers.
//
// Determinism is the design center: a cell's seed depends only on the
// grid seed and the cell's semantic key (family, size, measure, model,
// rate), never on its position, the worker count, or scheduling, and the
// emit path (harness.RunOrdered) streams results in cell order. The same
// spec therefore produces byte-identical output for any -workers value,
// and adding a family or rate to a grid never changes any other cell's
// numbers.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"faultexp/internal/faults"
	"faultexp/internal/gen"
	"faultexp/internal/xrand"
)

// Fault models a grid can sweep over; the names (and injection
// semantics) are owned by internal/faults' Model registry.
const (
	// ModelIIDNode fails each node independently with probability rate.
	ModelIIDNode = faults.ModelIIDNode
	// ModelIIDEdge fails each edge independently with probability rate.
	ModelIIDEdge = faults.ModelIIDEdge
	// ModelAdversarial gives the bottleneck adversary a budget of
	// round(rate·n) node faults.
	ModelAdversarial = faults.ModelAdversarial
)

// Models lists the supported fault models, in canonical order.
func Models() []string { return faults.ModelNames() }

// FamilySpec names one graph of the generator zoo: a family plus its
// size token (gen registry semantics). K is the family parameter —
// chain length for chain, rewired edges for smallworld, shortcut edges
// for shortcut — and must be zero for families whose KUse is empty.
type FamilySpec struct {
	Family string `json:"family"`
	Size   string `json:"size"`
	K      int    `json:"k,omitempty"`
}

// Validate checks the entry against the gen family registry: the family
// must be registered, and a k parameter is only allowed where the
// family declares a use for it.
func (f FamilySpec) Validate() error {
	if f.Family == "" || f.Size == "" {
		return fmt.Errorf("sweep: family entry %+v missing family or size", f)
	}
	fam, ok := gen.FamilyByName(f.Family)
	if !ok {
		return fmt.Errorf("sweep: unknown family %q (have %s)", f.Family, strings.Join(gen.FamilyNames(), ", "))
	}
	if f.K < 0 {
		return fmt.Errorf("sweep: family %q has negative k %d", f.Family, f.K)
	}
	if f.K > 0 && fam.KUse() == "" {
		return fmt.Errorf("sweep: family %q takes no k parameter (only %s)", f.Family, strings.Join(familiesWithK(), ", "))
	}
	return nil
}

// familiesWithK lists the registered families that accept a k
// parameter, for error messages.
func familiesWithK() []string {
	var out []string
	for _, fam := range gen.Families() {
		if fam.KUse() != "" {
			out = append(out, fam.Name())
		}
	}
	return out
}

// String renders the spec in the CLI token form family:size[:k].
func (f FamilySpec) String() string {
	if f.K > 0 {
		return fmt.Sprintf("%s:%s:%d", f.Family, f.Size, f.K)
	}
	return f.Family + ":" + f.Size
}

// ParseFamily parses a family:size[:k] token against the gen family
// registry: the family must be registered, and the :k suffix is only
// accepted for families that declare a use for it (chain, smallworld,
// shortcut) — previously any family silently accepted (and ignored) a
// chain-length suffix.
func ParseFamily(tok string) (FamilySpec, error) {
	parts := strings.Split(strings.TrimSpace(tok), ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return FamilySpec{}, fmt.Errorf("sweep: family token %q, want family:size[:k]", tok)
	}
	f := FamilySpec{Family: parts[0], Size: parts[1]}
	if len(parts) == 3 {
		k, err := strconv.Atoi(parts[2])
		if err != nil || k < 1 {
			return FamilySpec{}, fmt.Errorf("sweep: bad k parameter in %q", tok)
		}
		f.K = k
	}
	if err := f.Validate(); err != nil {
		return FamilySpec{}, fmt.Errorf("%w (token %q)", err, tok)
	}
	return f, nil
}

// ParseFamilies parses a comma-separated list of family tokens.
func ParseFamilies(list string) ([]FamilySpec, error) {
	var out []FamilySpec
	for _, tok := range strings.Split(list, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		f, err := ParseFamily(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty family list")
	}
	return out, nil
}

// ParseModels parses and validates a comma-separated list of fault
// models.
func ParseModels(list string) ([]string, error) {
	var out []string
	for _, tok := range strings.Split(list, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	if err := faults.ValidateModels(out); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of fault rates.
func ParseRates(list string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(list, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad rate %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty rate list")
	}
	return out, nil
}

// Spec is a declarative parameter grid. The cell set is the cross
// product Families × Measures × Models × Rates; each cell runs Trials
// trials.
type Spec struct {
	Families []FamilySpec `json:"families"`
	Measures []string     `json:"measures"`
	// Models is the fault-model axis of the grid.
	Models []string `json:"models,omitempty"`
	// Model is the legacy scalar form of Models, still accepted in spec
	// JSON; Validate folds it into Models. Setting both is an error.
	//
	// Deprecated: set Models. The field remains for spec-file
	// compatibility (output bytes are identical either way) and may
	// only ever hold one model.
	Model  string    `json:"model,omitempty"`
	Rates  []float64 `json:"rates"`
	Trials int       `json:"trials"`
	Seed   uint64    `json:"seed"`
	// Workers is the default pool size (0 = GOMAXPROCS); it affects
	// wall-clock only, never the output bytes.
	Workers int `json:"workers,omitempty"`
	// RateMode selects how the rate axis is sampled. The default
	// ("" or "independent") runs every cell on its own fault
	// realizations — the historical behavior, byte-for-byte. "coupled"
	// draws ONE uniform per element (node or edge) per trial and reuses
	// it at every rate, which makes the fault sets monotone in the rate
	// and lets union-find-based measures sweep the whole rate axis in a
	// single incremental pass per trial. Coupled mode requires iid fault
	// models and measures with a registered coupled implementation, and
	// is incompatible with sharding and cell-granular resume.
	RateMode string `json:"rate_mode,omitempty"`
	// Precision selects the measurement tier: "" or "exact" (the
	// default — historical kernels, byte-identical output) or
	// "sampled:k" (k-sample approximate kernels with error-bar
	// companion metrics and the raised gen size caps). Sampled
	// precision requires every measure in the grid to be
	// sampled-capable and is incompatible with the coupled rate mode.
	Precision string `json:"precision,omitempty"`
	// TrialParallel opts the run into trial-level parallelism: each
	// cell's trial loop splits into fixed-size blocks of TrialBlock
	// trials, blocks run on the worker pool, and each block's streaming
	// accumulators fold via stats.Stream.Merge in block-index order.
	// Output bytes then depend on the block partition (Trials,
	// TrialBlock) — never on worker count, sharding, or resume — but
	// the _mean/_std companions can differ from the serial fold in the
	// last ulp, which is why the mode is opt-in and every Result
	// records its partition (trial_block). Incompatible with the
	// coupled rate mode (a coupled group's incremental rate pass is
	// sequential by construction).
	TrialParallel bool `json:"trial_parallel,omitempty"`
	// TrialBlock is the trial-block size of the trial-parallel mode
	// (0 = DefaultTrialBlock; Validate normalizes). Part of the output
	// contract: changing it changes the block partition and therefore
	// the bytes. Setting it without TrialParallel is an error.
	TrialBlock int `json:"trial_block,omitempty"`
}

// DefaultTrialBlock is the trial-block size a trial-parallel spec gets
// when trial_block is unset: large enough to amortize the per-block
// setup replay, small enough to spread a wide cell across a pool.
const DefaultTrialBlock = 64

// Rate-axis sampling modes.
const (
	// RateModeIndependent: each (rate) cell draws its own faults —
	// the default, equal to leaving RateMode empty.
	RateModeIndependent = "independent"
	// RateModeCoupled: one coupling draw per element serves every rate.
	RateModeCoupled = "coupled"
)

// Coupled reports whether the spec asks for the coupled rate mode.
func (s *Spec) Coupled() bool { return s.RateMode == RateModeCoupled }

// precision returns the parsed precision tier; only meaningful after
// Validate (which rejects malformed fields), so parse errors fall back
// to exact.
func (s *Spec) precision() Precision {
	p, err := ParsePrecision(s.Precision)
	if err != nil {
		return PrecisionExact
	}
	return p
}

// modelList returns the effective fault-model axis, honoring the legacy
// scalar field when the list is unset.
func (s *Spec) modelList() []string {
	if len(s.Models) > 0 {
		return s.Models
	}
	if s.Model != "" {
		return []string{s.Model}
	}
	return nil
}

// Load reads and validates a JSON grid spec.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the grid is well-formed: every family entry passes
// the gen registry (known family, k only where meaningful), every
// measure and fault model is registered, every rate is a finite value
// in [0,1], no axis repeats a value (a repeat would emit identical
// records under one seed), and the legacy scalar model field is folded
// into the Models list.
func (s *Spec) Validate() error {
	if len(s.Families) == 0 {
		return fmt.Errorf("sweep: no families")
	}
	fams := make(map[string]bool, len(s.Families))
	for _, f := range s.Families {
		if err := f.Validate(); err != nil {
			return err
		}
		if fams[f.String()] {
			return fmt.Errorf("sweep: duplicate family %q", f.String())
		}
		fams[f.String()] = true
	}
	if len(s.Measures) == 0 {
		return fmt.Errorf("sweep: no measures")
	}
	measures := make(map[string]bool, len(s.Measures))
	for _, m := range s.Measures {
		if _, ok := LookupTrials(m); !ok {
			return fmt.Errorf("sweep: unknown measure %q (have %s)", m, strings.Join(Measures(), ", "))
		}
		if measures[m] {
			return fmt.Errorf("sweep: duplicate measure %q", m)
		}
		measures[m] = true
	}
	if s.Model != "" && len(s.Models) > 0 {
		return fmt.Errorf("sweep: spec sets both models and the legacy scalar model; use models")
	}
	if err := faults.ValidateModels(s.modelList()); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	// Normalize the legacy scalar so downstream consumers see one form.
	s.Models = s.modelList()
	s.Model = ""
	if len(s.Rates) == 0 {
		return fmt.Errorf("sweep: no rates")
	}
	rates := make(map[float64]bool, len(s.Rates))
	for _, r := range s.Rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("sweep: rate %v outside [0,1]", r)
		}
		if rates[r] {
			return fmt.Errorf("sweep: duplicate rate %v", r)
		}
		rates[r] = true
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials must be ≥ 1")
	}
	if s.Workers < 0 {
		return fmt.Errorf("sweep: workers must be ≥ 0 (0 = GOMAXPROCS), got %d", s.Workers)
	}
	switch s.RateMode {
	case "", RateModeIndependent, RateModeCoupled:
	default:
		return fmt.Errorf("sweep: unknown rate_mode %q (want %q or %q)", s.RateMode, RateModeIndependent, RateModeCoupled)
	}
	prec, err := ParsePrecision(s.Precision)
	if err != nil {
		return err
	}
	if prec.Sampled {
		if s.Coupled() {
			return fmt.Errorf("sweep: coupled rate mode does not compose with sampled precision (coupled kernels are exact incremental passes); drop rate_mode or use precision %q", "exact")
		}
		for _, m := range s.Measures {
			if !SampledCapable(m) {
				return fmt.Errorf("sweep: measure %q has no sampled-precision kernel (have %s)", m, strings.Join(SampledMeasures(), ", "))
			}
		}
	}
	if s.Coupled() {
		for _, m := range s.Models {
			if m != ModelIIDNode && m != ModelIIDEdge {
				return fmt.Errorf("sweep: coupled rate mode needs iid fault models (one uniform per element), got %q", m)
			}
		}
		for _, m := range s.Measures {
			if _, ok := LookupCoupled(m); !ok {
				return fmt.Errorf("sweep: measure %q has no coupled implementation (have %s)", m, strings.Join(CoupledMeasures(), ", "))
			}
		}
	}
	if !s.TrialParallel && s.TrialBlock != 0 {
		return fmt.Errorf("sweep: trial_block is set but trial_parallel is not (the block size is part of the trial-parallel output contract)")
	}
	if s.TrialParallel {
		if s.Coupled() {
			return fmt.Errorf("sweep: coupled rate mode does not compose with trial_parallel (a coupled group's incremental rate pass is sequential by construction)")
		}
		if s.TrialBlock < 0 {
			return fmt.Errorf("sweep: trial_block must be ≥ 0 (0 = %d), got %d", DefaultTrialBlock, s.TrialBlock)
		}
		if s.TrialBlock == 0 {
			s.TrialBlock = DefaultTrialBlock
		}
	}
	return nil
}

// Cell is one point of the expanded grid.
type Cell struct {
	Index   int
	Family  FamilySpec
	Measure string
	Model   string
	Rate    float64
	Trials  int
	// Seed is the cell's private RNG root, derived by hash-splitting
	// from the grid seed and the cell's semantic key.
	Seed uint64
	// Precision is the cell's measurement tier. Sampled cells fold the
	// tier into Seed (see CellSeedPrecision), so exact cells keep their
	// historical seeds and output bytes.
	Precision Precision
	// TrialBlock is the trial-parallel block size; 0 means the serial
	// trial loop (the default, historical fold order). Non-zero only
	// when the spec opts into trial_parallel.
	TrialBlock int
}

// FaultModel returns the cell's fault model, or nil if its name does
// not resolve. Validate refuses unknown models, and runTrialBlock
// refuses a hand-built cell whose model is unknown, so a trial function
// calls the result unchecked.
func (c Cell) FaultModel() faults.Model {
	m, _ := faults.ModelByName(c.Model)
	return m
}

// recordPrecision is the precision field of the cell's record: the tier
// for sampled cells, empty (omitted) for exact ones, so exact output
// keeps its historical bytes.
func (c Cell) recordPrecision() string {
	if !c.Precision.Sampled {
		return ""
	}
	return c.Precision.String()
}

// rateToken renders a rate for seed keys and CSV cells; shortest
// round-trip form, so 0.05 is always "0.05".
func rateToken(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// CellSeed derives the deterministic RNG root for one grid cell. It is
// exported so tests and external tools can reproduce any single cell
// without running the grid.
func CellSeed(gridSeed uint64, f FamilySpec, measure, model string, rate float64) uint64 {
	return xrand.SeedFor(gridSeed, "cell", f.String(), measure, model, rateToken(rate))
}

// CellSeedPrecision is CellSeed with the precision tier folded into the
// semantic key for sampled cells. Exact cells hash exactly as CellSeed
// always has, so existing output stays byte-identical; sampled cells
// get seeds disjoint from every exact cell (and from other sample
// budgets), which also makes resume refuse to mix tiers.
func CellSeedPrecision(gridSeed uint64, f FamilySpec, measure, model string, rate float64, p Precision) uint64 {
	if !p.Sampled {
		return CellSeed(gridSeed, f, measure, model, rate)
	}
	return xrand.SeedFor(gridSeed, "cell", f.String(), measure, model, rateToken(rate), p.String())
}

// CoupledGroupSeed derives the deterministic RNG root for one coupled
// cell group — a (family, measure, model) triple covering every rate of
// the grid. The coupling draws of trial t come from SeedAt(groupSeed, t),
// so they are shared by all rates but independent across trials, and —
// like cell seeds — depend only on semantic keys, never on grid shape.
func CoupledGroupSeed(gridSeed uint64, f FamilySpec, measure, model string) uint64 {
	return xrand.SeedFor(gridSeed, "cgroup", f.String(), measure, model)
}

// GraphSeed derives the RNG root used to *construct* a family's graph.
// It depends only on the grid seed and the family, so every cell of the
// grid sees the same graph instance for randomized families.
func GraphSeed(gridSeed uint64, f FamilySpec) uint64 {
	return xrand.SeedFor(gridSeed, "graph", f.String())
}

// Cells expands the grid in deterministic order: families × measures ×
// models × rates, rates innermost. A single-model grid therefore
// expands in exactly the order (and with exactly the seeds) of the
// historical families × measures × rates form — cell seeds depend only
// on semantic keys, never on grid shape or position.
func (s *Spec) Cells() []Cell {
	models := s.modelList()
	prec := s.precision()
	block := 0
	if s.TrialParallel {
		block = s.TrialBlock
		if block == 0 {
			block = DefaultTrialBlock // spec not yet normalized by Validate
		}
	}
	out := make([]Cell, 0, len(s.Families)*len(s.Measures)*len(models)*len(s.Rates))
	for _, f := range s.Families {
		for _, m := range s.Measures {
			for _, mod := range models {
				for _, r := range s.Rates {
					out = append(out, Cell{
						Index:      len(out),
						Family:     f,
						Measure:    m,
						Model:      mod,
						Rate:       r,
						Trials:     s.Trials,
						Seed:       CellSeedPrecision(s.Seed, f, m, mod, r, prec),
						Precision:  prec,
						TrialBlock: block,
					})
				}
			}
		}
	}
	return out
}
