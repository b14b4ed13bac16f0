package spectral

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"faultexp/internal/gen"
	"faultexp/internal/graph"
	"faultexp/internal/xrand"
)

// lanczosDigestsPath holds one SHA-256 per (entry point, family): the
// bits the Lanczos kernel produced on a corpus of faulted graphs when
// the file was generated.
const lanczosDigestsPath = "testdata/lanczos_digests.txt"

// digestFamilies are the graphs faultbench's spectral workloads run
// Lanczos on: prune and prune2 on torus:32x32, hypercube:10 and
// expander:32, and lambda2 on torus:24x24, hypercube:9 and expander:24.
// On their faulted survivors Lanczos runs 60–125 Krylov steps, so a
// summation-order slip that only shows on long runs moves a digest.
var digestFamilies = []struct {
	name string
	g    func() *graph.Graph
}{
	{"torus:32x32", func() *graph.Graph { return gen.Torus(32, 32) }},
	{"torus:24x24", func() *graph.Graph { return gen.Torus(24, 24) }},
	{"hypercube:10", func() *graph.Graph { return gen.Hypercube(10) }},
	{"hypercube:9", func() *graph.Graph { return gen.Hypercube(9) }},
	{"expander:32", func() *graph.Graph { return gen.GabberGalil(32) }},
	{"expander:24", func() *graph.Graph { return gen.GabberGalil(24) }},
}

var (
	digestRates = []float64{0.01, 0.02, 0.03, 0.05, 0.08}
	digestSeeds = []uint64{1, 2, 3}
)

// faultedCorpus calls visit with every faulted graph of g's corpus:
// for each rate and seed, the largest component of the survivor of
// iid-node faults drawn from xrand (each vertex dropped with
// probability rate, in vertex order) — the graph the lambda2 measure
// runs Lanczos on.
func faultedCorpus(g *graph.Graph, visit func(sub *graph.Graph, seed uint64)) {
	keep := make([]bool, g.N())
	for _, rate := range digestRates {
		for _, seed := range digestSeeds {
			rng := xrand.New(seed)
			for v := range keep {
				keep[v] = rng.Float64() >= rate
			}
			visit(g.Induce(keep).LargestComponentSub().G, seed)
		}
	}
}

func hashUint(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

// TestLanczosDigests pins every output bit of the Lanczos kernel on
// long Krylov runs: for each family, FiedlerScratch's λ₂, Iters and
// every vector entry (one scratch reused across the whole corpus, so
// it grows and shrinks between graphs), and Lambda2's value. A kernel
// rewrite that claims byte identity must leave every digest in
// lanczosDigestsPath unchanged; one that moves bits bumps KernelVersion
// and regenerates the file from the digests this test logs on failure.
func TestLanczosDigests(t *testing.T) {
	want := loadDigests(t, lanczosDigestsPath)
	var got []string
	check := func(key string, h hash.Hash) {
		sum := fmt.Sprintf("%x", h.Sum(nil))
		got = append(got, key+" "+sum)
		if want[key] != sum {
			t.Errorf("%s: digest %s, want %q (%s)", key, sum, want[key], lanczosDigestsPath)
		}
		delete(want, key)
	}
	var scr Scratch
	for _, fam := range digestFamilies {
		fied, l2 := sha256.New(), sha256.New()
		faultedCorpus(fam.g(), func(sub *graph.Graph, seed uint64) {
			res := FiedlerScratch(sub, 0, xrand.New(seed), &scr)
			hashUint(fied, uint64(sub.N()))
			hashUint(fied, math.Float64bits(res.Lambda2))
			hashUint(fied, uint64(res.Iters))
			for _, x := range res.Vector {
				hashUint(fied, math.Float64bits(x))
			}
			hashUint(l2, math.Float64bits(Lambda2(sub, xrand.New(seed))))
		})
		check("fiedler/"+fam.name, fied)
		check("lambda2/"+fam.name, l2)
	}
	for key := range want {
		t.Errorf("%s lists %s, which this test no longer produces", lanczosDigestsPath, key)
	}
	if t.Failed() {
		sort.Strings(got)
		t.Logf("digests of this run (the %s contents that would pass):\n%s", lanczosDigestsPath, strings.Join(got, "\n"))
	}
}

// loadDigests reads a digest file of "key hex" lines into a
// key → hex map.
func loadDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		if ln == "" {
			continue
		}
		key, sum, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, ln)
		}
		out[key] = sum
	}
	return out
}
