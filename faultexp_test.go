package faultexp_test

// End-to-end tests of the public API: the paths a downstream user takes,
// wired exactly as README and the examples show them.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"faultexp"
	"faultexp/internal/sweep"
)

// runSweep runs spec to completion through the Job API — the
// synchronous form the tests in this package drive.
func runSweep(spec *faultexp.SweepSpec, w faultexp.SweepWriter, opts ...faultexp.SweepJobOption) (sweep.Summary, error) {
	j, err := faultexp.NewSweepJob(spec, append([]faultexp.SweepJobOption{faultexp.SweepJobWriter(w)}, opts...)...)
	if err != nil {
		return sweep.Summary{}, err
	}
	if err := j.Start(context.Background()); err != nil {
		return sweep.Summary{}, err
	}
	return j.Wait()
}

func TestPublicQuickstartPipeline(t *testing.T) {
	g := faultexp.Torus(12, 12)
	rng := faultexp.NewRNG(42)

	alphaE, _ := faultexp.EdgeExpansion(g, rng.Split())
	if alphaE.EdgeAlpha <= 0 {
		t.Fatal("edge expansion must be positive")
	}
	pat := faultexp.RandomNodeFaults(g, 0.03, rng.Split())
	faulty := pat.Apply(g)
	res := faultexp.Prune2(faulty.G, alphaE.EdgeAlpha, 0.125, rng.Split())
	if res.SurvivorSize() < g.N()/2 {
		t.Fatalf("survivor %d below n/2", res.SurvivorSize())
	}
	na, ea := faultexp.ResidualExpansion(res.H.G, rng.Split())
	if na <= 0 || ea <= 0 {
		t.Fatal("residual expansion must be positive")
	}
}

func TestPublicAdversarialPipeline(t *testing.T) {
	g := faultexp.Expander(8)
	rng := faultexp.NewRNG(7)
	alpha, _ := faultexp.NodeExpansion(g, rng.Split())
	pat := faultexp.AdversarialFaults(g, 3, rng.Split())
	res := faultexp.Prune(pat.Apply(g).G, alpha.NodeAlpha, 0.5, rng.Split())
	if res.SurvivorSize() < g.N()-30 {
		t.Fatalf("expander survivor too small: %d of %d", res.SurvivorSize(), g.N())
	}
}

func TestPublicSpanAPI(t *testing.T) {
	mesh := faultexp.Mesh(3, 3)
	est := faultexp.ExactSpan(mesh)
	if est.Sigma <= 0 || est.Sigma > 2 {
		t.Fatalf("3x3 mesh span = %v", est.Sigma)
	}
	big := faultexp.Mesh(8, 8)
	sampled := faultexp.SampledSpan(big, 30, faultexp.NewRNG(3))
	if sampled.Sets == 0 || sampled.Sigma <= 0 {
		t.Fatalf("sampled span failed: %+v", sampled)
	}
	cert, err := faultexp.MeshSpanCertificate(big, []int{8, 8}, []int{0, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.WithinTwoCert || !cert.EvConnected {
		t.Fatalf("certificate failed: %+v", cert)
	}
	p := faultexp.SpanFaultTolerance(4, 2)
	if p <= 0 || p >= 1 {
		t.Fatalf("tolerance %v out of range", p)
	}
}

func TestPublicPercolationAPI(t *testing.T) {
	g := faultexp.Torus(16, 16)
	rng := faultexp.NewRNG(5)
	curve := faultexp.PercolationCurve(g, faultexp.Site, 5, rng.Split())
	if curve.AtP(1) != 1 {
		t.Fatalf("γ(1) = %v", curve.AtP(1))
	}
	pc := faultexp.CriticalProbability(g, faultexp.Bond, 0.2, 8, 8, rng.Split())
	if pc < 0.2 || pc > 0.8 {
		t.Fatalf("2D bond threshold estimate %v implausible", pc)
	}
}

func TestPublicSpectralAPI(t *testing.T) {
	g := faultexp.Hypercube(4)
	l2 := faultexp.Lambda2(g, faultexp.NewRNG(9))
	// Q4 normalized Laplacian: λ2 = 2/4 = 0.5.
	if math.Abs(l2-0.5) > 1e-6 {
		t.Fatalf("Q4 λ2 = %v, want 0.5", l2)
	}
	lo, hi := faultexp.CheegerBounds(l2)
	if math.Abs(lo-0.25) > 1e-6 || math.Abs(hi-1) > 1e-6 {
		t.Fatalf("Cheeger bounds %v %v", lo, hi)
	}
}

func TestPublicEmbeddingAPI(t *testing.T) {
	g := faultexp.Torus(8, 8)
	rng := faultexp.NewRNG(11)
	pat := faultexp.RandomNodeFaults(g, 0.05, rng.Split())
	core := pat.Apply(g).LargestComponentSub()
	emb, err := faultexp.Emulate(g, core)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	m := emb.Evaluate()
	if m.Slowdown != m.Load+m.Congestion+m.Dilation {
		t.Fatal("slowdown identity broken")
	}
}

func TestPublicBalanceAPI(t *testing.T) {
	g := faultexp.Torus(8, 8)
	load := make([]float64, g.N())
	load[0] = float64(g.N())
	after := faultexp.Diffuse(g, load, 10)
	if len(after) != g.N() {
		t.Fatal("diffuse shape wrong")
	}
	sum := 0.0
	for _, x := range after {
		sum += x
	}
	if math.Abs(sum-float64(g.N())) > 1e-6 {
		t.Fatalf("load not conserved: %v", sum)
	}
	r := faultexp.RoundsToBalance(g, load, 0.05, 100000)
	if r <= 0 || r >= 100000 {
		t.Fatalf("rounds to balance = %d", r)
	}
}

func TestPublicAgreementAPI(t *testing.T) {
	g := faultexp.Expander(10)
	rng := faultexp.NewRNG(13)
	inst := faultexp.NewAgreement(g, rng.SampleK(g.N(), 5), 0.7, rng.Split())
	frac := inst.Run(25)
	if frac < 0.85 {
		t.Fatalf("expander agreement = %v", frac)
	}
}

func TestPublicRoutingAPI(t *testing.T) {
	g := faultexp.Torus(8, 8)
	rng := faultexp.NewRNG(17)
	res := faultexp.RouteRandomPairs(g, 100, rng.Split())
	if res.Pairs != 100 || res.Congestion < 1 {
		t.Fatalf("routing result %+v", res)
	}
	perm := faultexp.RoutePermutation(g, rng.Split())
	if perm.Pairs+perm.Unreached != g.N() {
		t.Fatalf("permutation covered %d", perm.Pairs+perm.Unreached)
	}
}

func TestPublicBuilders(t *testing.T) {
	b := faultexp.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("builder produced %v", g)
	}
	g2 := faultexp.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if g2.M() != 2 {
		t.Fatal("FromEdges wrong")
	}
	cg := faultexp.ChainReplace(faultexp.Expander(4), 3)
	if cg.K != 3 || cg.G.N() <= cg.Base.N() {
		t.Fatal("chain replace wrong")
	}
	if faultexp.CAN(2, 8).N() != 64 {
		t.Fatal("CAN wrong")
	}
	if faultexp.Butterfly(3).N() != 32 {
		t.Fatal("butterfly wrong")
	}
	if faultexp.RandomRegular(10, 3, faultexp.NewRNG(1)).MinDegree() != 3 {
		t.Fatal("random regular wrong")
	}
}

// TestPublicFamilyRegistryAndShardedSweep walks the new public surface
// end to end: registry lookup, building a randomized family, and a
// multi-model sharded sweep whose merged output is byte-identical to
// the unsharded run.
func TestPublicFamilyRegistryAndShardedSweep(t *testing.T) {
	fam, ok := faultexp.GraphFamilyByName("smallworld")
	if !ok || fam.KUse() == "" {
		t.Fatalf("smallworld not registered with a k parameter: %v %v", fam, ok)
	}
	if len(faultexp.GraphFamilies()) < 17 {
		t.Fatalf("%d families, want ≥ 17", len(faultexp.GraphFamilies()))
	}
	g, _, err := faultexp.BuildFamily("smallworld", "48x4", 8, faultexp.NewRNG(3))
	if err != nil || g.N() != 48 || g.M() != 96 {
		t.Fatalf("BuildFamily(smallworld:48x4:8) = %v, %v", g, err)
	}
	if sw := faultexp.SmallWorld(48, 4, 8, faultexp.NewRNG(3)); sw.M() != 96 {
		t.Fatalf("SmallWorld edge count %d, want 96", sw.M())
	}
	if sc := faultexp.AddShortcuts(faultexp.Mesh(4, 4), 5, faultexp.NewRNG(1)); sc.M() != 24+5 {
		t.Fatalf("AddShortcuts added %d edges, want 5", sc.M()-24)
	}

	spec := &faultexp.SweepSpec{
		Families: []faultexp.SweepFamily{
			{Family: "torus", Size: "4x4"},
			{Family: "gnp", Size: "24x3"},
		},
		Measures: []string{"gamma"},
		Models:   []string{"iid-node", "iid-edge"},
		Rates:    []float64{0, 0.2},
		Trials:   2,
		Seed:     11,
	}
	var want bytes.Buffer
	if _, err := runSweep(spec, faultexp.NewSweepJSONL(&want), faultexp.SweepJobWorkers(2)); err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	const m = 2
	shards := make([]bytes.Buffer, m)
	for i := 0; i < m; i++ {
		sh, err := sweep.ParseShard(fmt.Sprintf("%d/%d", i, m))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runSweep(spec, faultexp.NewSweepJSONL(&shards[i]),
			faultexp.SweepJobWorkers(2), sweep.WithShard(sh)); err != nil {
			t.Fatalf("runSweep(shard %d): %v", i, err)
		}
	}
	var got bytes.Buffer
	n, err := sweep.MergeShards(
		[]io.Reader{bytes.NewReader(shards[0].Bytes()), bytes.NewReader(shards[1].Bytes())}, &got, nil, spec)
	if err != nil || n != 8 {
		t.Fatalf("MergeShards = %d, %v; want 8 records", n, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged shards differ from unsharded run:\n--- want ---\n%s\n--- got ---\n%s", want.Bytes(), got.Bytes())
	}
}

// TestPublicSweepJob drives the exported Job surface the way README's
// Job API section shows it: construct, start, observe, cancel, resume —
// with the cancelled-then-resumed output byte-identical to a clean run.
func TestPublicSweepJob(t *testing.T) {
	spec := func() *faultexp.SweepSpec {
		return &faultexp.SweepSpec{
			Families: []faultexp.SweepFamily{
				{Family: "torus", Size: "8x8"},
				{Family: "hypercube", Size: "5"},
			},
			Measures: []string{"gamma"},
			Models:   []string{"iid-node"},
			Rates:    []float64{0, 0.1, 0.2, 0.3},
			Trials:   5,
			Seed:     17,
		}
	}

	// Clean run through the Job API.
	var want bytes.Buffer
	job, err := faultexp.NewSweepJob(spec(), faultexp.SweepJobWriter(faultexp.NewSweepJSONL(&want)))
	if err != nil {
		t.Fatalf("NewSweepJob: %v", err)
	}
	if s := job.Snapshot(); s.State != sweep.JobPending || s.CellsTotal != 8 {
		t.Fatalf("pending snapshot = %+v", s)
	}
	if err := job.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if s := job.Snapshot(); s.State != sweep.JobDone || s.CellsDone != 8 || s.TrialsDone != 40 {
		t.Fatalf("done snapshot = %+v", s)
	}

	// Cancel mid-run, then resume to byte identity.
	var buf bytes.Buffer
	var cj *faultexp.SweepJob
	var once sync.Once
	cj, err = faultexp.NewSweepJob(spec(),
		faultexp.SweepJobWriter(faultexp.NewSweepJSONL(&buf)),
		faultexp.SweepJobWorkers(1),
		sweep.WithProgress(func(done, total int) {
			if done >= 2 {
				once.Do(cj.Cancel)
			}
		}))
	if err != nil {
		t.Fatalf("NewSweepJob(cancel): %v", err)
	}
	if err := cj.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	sum, werr := cj.Wait()
	if werr == nil || !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled Wait = %v, want context.Canceled", werr)
	}
	if s := cj.Snapshot(); s.State != sweep.JobCancelled {
		t.Fatalf("cancelled snapshot = %+v", s)
	}
	st, err := sweep.ScanResume(bytes.NewReader(buf.Bytes()), spec().Cells())
	if err != nil || st.Done != sum.Cells {
		t.Fatalf("ScanResume = %+v, %v (want %d clean cells)", st, err, sum.Cells)
	}
	rj, err := faultexp.NewSweepJob(spec(),
		faultexp.SweepJobWriter(faultexp.NewSweepJSONL(&buf)),
		sweep.WithSkipCells(st.Done))
	if err != nil {
		t.Fatalf("NewSweepJob(resume): %v", err)
	}
	if err := rj.Start(context.Background()); err != nil {
		t.Fatalf("Start(resume): %v", err)
	}
	if _, err := rj.Wait(); err != nil {
		t.Fatalf("Wait(resume): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Errorf("cancelled+resumed differs from clean run:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want.Bytes())
	}
}
