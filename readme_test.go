package faultexp_test

// Golden test keeping README's Measures table in lockstep with the live
// measure registry: a measure registered without a README row (or a
// README row for a measure that no longer exists) fails here.

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"faultexp"
	"faultexp/internal/sweep"
)

// readmeMeasures extracts the backticked measure names from the
// marker-delimited Measures table in README.md.
func readmeMeasures(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- measures:begin")
	end := strings.Index(s, "<!-- measures:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the measures:begin/measures:end markers")
	}
	section := s[begin:end]
	rowName := regexp.MustCompile("(?m)^\\| `([a-z0-9]+)`")
	var out []string
	for _, m := range rowName.FindAllStringSubmatch(section, -1) {
		out = append(out, m[1])
	}
	sort.Strings(out)
	return out
}

func TestREADMEMeasuresInSync(t *testing.T) {
	want := sweep.Measures() // sorted by contract
	got := readmeMeasures(t)
	inREADME := map[string]bool{}
	for _, m := range got {
		inREADME[m] = true
	}
	registered := map[string]bool{}
	for _, m := range want {
		registered[m] = true
		if !inREADME[m] {
			t.Errorf("measure %q registered but missing from README's Measures table", m)
		}
	}
	for _, m := range got {
		if !registered[m] {
			t.Errorf("README lists measure %q which is not registered", m)
		}
	}
	if len(want) < 17 {
		t.Errorf("%d measures registered, want ≥ 17", len(want))
	}
}

// readmeFamilies extracts (name, size token, k cell) from the
// marker-delimited families table in README.md.
func readmeFamilies(t *testing.T) map[string][2]string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- families:begin")
	end := strings.Index(s, "<!-- families:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the families:begin/families:end markers")
	}
	section := s[begin:end]
	row := regexp.MustCompile("(?m)^\\| `([a-z0-9]+)`\\s*\\| `([^`]+)`\\s*\\| ([^|]*)\\|")
	out := map[string][2]string{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		out[m[1]] = [2]string{m[2], strings.TrimSpace(m[3])}
	}
	return out
}

// TestREADMEFamiliesInSync keeps README's families table in lockstep
// with the live gen registry (the same mechanism as the measures
// table): every registered family appears with its exact size-token
// syntax and a k cell consistent with its KUse, and no stale rows
// survive.
func TestREADMEFamiliesInSync(t *testing.T) {
	rows := readmeFamilies(t)
	registered := map[string]bool{}
	for _, f := range faultexp.GraphFamilies() {
		registered[f.Name()] = true
		row, ok := rows[f.Name()]
		if !ok {
			t.Errorf("family %q registered but missing from README's families table", f.Name())
			continue
		}
		if row[0] != f.SizeSyntax() {
			t.Errorf("family %q: README size token %q, registry says %q", f.Name(), row[0], f.SizeSyntax())
		}
		if hasK := f.KUse() != ""; hasK == (row[1] == "—") {
			t.Errorf("family %q: README k cell %q inconsistent with KUse %q", f.Name(), row[1], f.KUse())
		}
	}
	for name := range rows {
		if !registered[name] {
			t.Errorf("README lists family %q which is not registered", name)
		}
	}
	if len(registered) < 17 {
		t.Errorf("%d families registered, want ≥ 17", len(registered))
	}
}

// TestREADMEAggDimsInSync keeps README's agg grouping-dimension list in
// lockstep with the live sweep.AggDims (the same marker mechanism as
// the measures and families tables).
func TestREADMEAggDimsInSync(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- aggdims:begin")
	end := strings.Index(s, "<!-- aggdims:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the aggdims:begin/aggdims:end markers")
	}
	section := s[begin:end]
	var got []string
	for _, m := range regexp.MustCompile("`([a-z]+)`").FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	want := sweep.AggDims
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("README agg dims %v, registry says %v", got, want)
	}
}

// TestREADMEDocumentsTrialStatsAndSubcommands pins the PR-4 surfaces
// the README promises: the per-trial companion suffixes, the resume and
// dry-run flags, the agg subcommand with its summary columns, and the
// records' kernel stamp.
func TestREADMEDocumentsTrialStatsAndSubcommands(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"`_mean`", "`_std`", "`_min`", "`_max`", // companion suffixes
		"-resume", "-dry-run", "faultexp agg", "-by",
		"`median`", "`nonfinite`", "`kernel`",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README does not document %s", want)
		}
	}
}

// TestREADMEModelsListed checks the fault-model names appear in README
// (prose, not a table — just presence).
func TestREADMEModelsListed(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	for _, m := range sweep.Models() {
		if !strings.Contains(string(b), "`"+m+"`") {
			t.Errorf("README does not mention fault model `%s`", m)
		}
	}
}

// TestREADMEDocumentsJobAPI pins the Job API section: the exported
// surface it demonstrates must exist by name, and the contract language
// (lock-free snapshots, cell-boundary drain, resumable prefix) must be
// present.
func TestREADMEDocumentsJobAPI(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### The Job API",
		"NewSweepJob", "SweepJobWriter", "SweepJobWorkers",
		"job.Start(ctx)", "job.Snapshot()", "job.Cancel()", "job.Wait()",
		"cell boundary", "lock-free",
		"resumable at cell", "SIGINT",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README's Job API docs do not mention %q", want)
		}
	}
	if !strings.Contains(s, "The job is the only entry point") {
		t.Error("README does not state that the job is the only entry point")
	}
}

// serveEndpoints is the canonical HTTP surface of `faultexp serve`
// (mirrored by cmd/faultexp/serve.go's mux registrations and its
// tests); README's table must list exactly these.
var serveEndpoints = []string{
	"POST /v1/jobs",
	"GET /v1/jobs",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/results",
	"DELETE /v1/jobs/{id}",
	"GET /healthz",
}

// TestREADMEDocumentsServeHTTPAPI keeps README's HTTP API table in
// lockstep with the daemon's route list (the same marker mechanism as
// the measures/families tables).
func TestREADMEDocumentsServeHTTPAPI(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- httpapi:begin")
	end := strings.Index(s, "<!-- httpapi:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the httpapi:begin/httpapi:end markers")
	}
	section := s[begin:end]
	var got []string
	for _, m := range regexp.MustCompile("`((?:POST|GET|DELETE) [^`]+)`").FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, "\n") != strings.Join(serveEndpoints, "\n") {
		t.Errorf("README HTTP API table lists:\n%v\nwant exactly:\n%v", got, serveEndpoints)
	}
	for _, want := range []string{"?from=", "faultexp serve", "-max-active", "-max-jobs", "byte-identical"} {
		if !strings.Contains(section, want) && !strings.Contains(s, want) {
			t.Errorf("README serve docs do not mention %q", want)
		}
	}
}

// TestREADMECoupledMeasuresInSync keeps README's coupled-capable
// measure list in lockstep with the live coupled registry (the same
// marker mechanism as the measures/families tables).
func TestREADMECoupledMeasuresInSync(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- coupledmeasures:begin")
	end := strings.Index(s, "<!-- coupledmeasures:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the coupledmeasures:begin/coupledmeasures:end markers")
	}
	section := s[begin:end]
	var got []string
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	want := sweep.CoupledMeasures() // sorted by contract
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("README coupled measures %v, registry says %v", got, want)
	}
	if len(want) < 3 {
		t.Errorf("%d coupled measures registered, want ≥ 3", len(want))
	}
}

// TestREADMEDocumentsRateModeAndKernelScratch pins the PR-6 surfaces
// the README promises: the rate_mode spec field and flag with both
// tokens, the kernel-scratch ownership story with its CI gate, the
// serve retention cap, and the agg median exact/approximate split.
func TestREADMEDocumentsRateModeAndKernelScratch(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### Coupled rate sweeps",
		`"rate_mode": "` + sweep.RateModeCoupled + `"`,
		`"rate_mode": "` + sweep.RateModeIndependent + `"`,
		"-rate-mode",
		"monotone in r",
		"`cuts.Workspace`", "`span.Workspace`",
		"alloc regression gate",
		"-max-result-bytes",
		"exact for groups of up to 64",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README does not document %q", want)
		}
	}
}

// TestREADMEDocumentsParallelismModel pins the trial-parallel surfaces
// the README promises: the section itself, the spec fields and flags,
// the block-merge determinism contract with its last-ulp caveat, the
// lazy ref-counted graph lifecycle counters, cell-order dispatch with
// its cancel guarantee, and the dry run's cost column.
func TestREADMEDocumentsParallelismModel(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### Parallelism model",
		`"trial_parallel": true`, "-trial-parallel",
		`"trial_block"`, "-trial-block",
		"block-index",
		"last\n  ulp",
		"one trial block covering `[0, trials)`",
		"ref-counted",
		"`graphs_built` / `graphs_total`",
		"**Cell-order dispatch.**",
		"straddles the cut",
		"cost~", "sweep.UnitCost",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README's parallelism docs do not mention %q", want)
		}
	}
	// The documented default must be the real one.
	if sweep.DefaultTrialBlock != 64 {
		t.Errorf("README documents a default trial block of 64, code says %d", sweep.DefaultTrialBlock)
	}
}

// TestREADMESampledMeasuresInSync keeps README's sampled-capable
// measure list in lockstep with the live sampled registry (the same
// marker mechanism as the coupled-measures list).
func TestREADMESampledMeasuresInSync(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	begin := strings.Index(s, "<!-- sampledmeasures:begin")
	end := strings.Index(s, "<!-- sampledmeasures:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the sampledmeasures:begin/sampledmeasures:end markers")
	}
	section := s[begin:end]
	var got []string
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	want := sweep.SampledMeasures() // sorted by contract
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("README sampled measures %v, registry says %v", got, want)
	}
	if len(want) < 4 {
		t.Errorf("%d sampled measures registered, want ≥ 4", len(want))
	}
}

// TestREADMEDocumentsPrecision pins the precision-tier surfaces the
// README promises: the spec field and flag with both tokens, the
// error-bar metrics, the raised sampled-tier size caps, the coupled
// refusal, and the dry-run memory table.
func TestREADMEDocumentsPrecision(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### Precision tiers",
		`"precision": "sampled:k"`,
		`"` + sweep.PrecisionExact.String() + `"`,
		"-precision",
		"diameter_lb",
		"residual",
		"stretch_max",
		"gen.MaxVerticesSampled",
		"gen.MaxEdgesSampled",
		"does not compose with sampling",
		"peak build memory",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README does not document %q", want)
		}
	}
}

// TestREADMEDocumentsResultCache pins the "Result cache" section: the
// flag, the key-derivation and invalidation story, the integrity and
// single-flight semantics, the on-disk layout, the snapshot counters,
// and the exported library surface must all stay documented.
func TestREADMEDocumentsResultCache(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### Result cache (`-cache`)",
		"content-addressed",
		"SHA-256",
		"kernel-version",
		"Invalidation",
		"orphans every old entry",
		"all-or-nothing",
		"Error records are never cached",
		"CRC-32C",
		"temp file",
		"`rename`",
		"byte-identical",
		"DIR/<hex[0:2]>/<hex[2:]>",
		"Single-flight",
		"`cache_hits`",
		"`cache_misses`",
		"`cache_inflight`",
		"cells cached",
		"cache.Open",
		"sweep.WithCache",
		"sweep.WithFlight",
		"sweep.CellCacheKey",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README's result-cache docs do not mention %q", want)
		}
	}
	// The documented kernel-version stamp exists and is non-empty.
	if sweep.KernelVersion == "" {
		t.Error("KernelVersion is empty")
	}
}

// TestREADMEDocumentsDistributedSweeps pins the distributed-fabric
// section: worker and coordinator invocations with their flags, the
// worker protocol, the durable-store layout, the failure semantics,
// and the kernel-skew discipline must all stay documented.
func TestREADMEDocumentsDistributedSweeps(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		"### Distributed sweeps: `faultexp worker` + `faultexp coordinator`",
		"faultexp worker -addr",
		"faultexp coordinator -addr",
		"-workers", "-store",
		"-max-inflight", "-health-interval", "-retry-delay",
		// The worker protocol.
		"`?shard=i/m`", "`?skip=K`",
		// The durable-store layout, path by path: one record file per
		// job, in cell order.
		"meta.json", "spec.json", "shard-0-of-1.jsonl", "every cell in order", "cancelled",
		"temp dir + rename",
		// Failure semantics.
		"reassigned to surviving",
		"never recomputation of verified cells",
		"torn final line",
		"no duplicated or missing cells",
		"cancels durably",
		"faultexp merge -dir",
		// Kernel-skew discipline.
		"kernel-version stamp",
		"refuses to\ndispatch",
		"sweep.KernelVersion",
		"GET /v1/workers",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README's distributed-sweeps docs do not mention %q", want)
		}
	}
	// The byte-identity promise is made explicitly for the fleet path.
	if !strings.Contains(s, "byte-identical to a single-node `faultexp sweep`") {
		t.Error("README does not promise fleet/single-node byte identity")
	}
}

// fuzzCommands returns, in order, the trimmed lines of path that run a
// fuzz target: a `go test` command with a -fuzz flag.
func fuzzCommands(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var out []string
	for _, ln := range strings.Split(string(b), "\n") {
		ln = strings.TrimSpace(ln)
		if strings.HasPrefix(ln, "go test ") && strings.Contains(ln, " -fuzz ") {
			out = append(out, ln)
		}
	}
	return out
}

// TestREADMEFuzzCommandsMatchCI keeps README's list of fuzz-smoke
// commands equal, line for line, to the commands CI's fuzz smoke step
// runs, so a target added to CI cannot go undocumented.
func TestREADMEFuzzCommandsMatchCI(t *testing.T) {
	ci := fuzzCommands(t, ".github/workflows/ci.yml")
	readme := fuzzCommands(t, "README.md")
	if len(ci) == 0 {
		t.Fatal("found no -fuzz commands in .github/workflows/ci.yml")
	}
	if strings.Join(readme, "\n") != strings.Join(ci, "\n") {
		t.Errorf("README's fuzz commands:\n%s\nCI runs:\n%s", strings.Join(readme, "\n"), strings.Join(ci, "\n"))
	}
}
