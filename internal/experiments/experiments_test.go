package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"faultexp/internal/harness"
)

// reportDigestsPath holds one SHA-256 per experiment: the bytes of its
// quick-mode Report.Render at runQuick's seed when the file was
// generated. It pins that a refactor of a kernel the experiments run
// moves no byte of the paper-facing tables and checks.
const reportDigestsPath = "testdata/report_digests.txt"

func runQuick(t *testing.T, id string) *harness.Report {
	t.Helper()
	exp, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	cfg := harness.Config{Quick: true, Seed: 20040627} // SPAA'04 began June 27 2004
	rep := exp.Run(cfg)
	if rep == nil {
		t.Fatalf("%s returned nil report", id)
	}
	var b strings.Builder
	rep.Render(&b)
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("%s check %q failed: %s\nfull report:\n%s", id, c.Name, c.Detail, b.String())
		}
	}
	if len(rep.Tables) == 0 {
		t.Errorf("%s produced no tables", id)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if want := loadDigests(t, reportDigestsPath)[id]; sum != want {
		t.Errorf("report digest %s, want %q (%s line %q)", sum, want, reportDigestsPath, id+" "+sum)
	}
	return rep
}

func TestE1(t *testing.T)  { runQuick(t, "E1") }
func TestE2(t *testing.T)  { runQuick(t, "E2") }
func TestE3(t *testing.T)  { runQuick(t, "E3") }
func TestE4(t *testing.T)  { runQuick(t, "E4") }
func TestE5(t *testing.T)  { runQuick(t, "E5") }
func TestE6(t *testing.T)  { runQuick(t, "E6") }
func TestE7(t *testing.T)  { runQuick(t, "E7") }
func TestE8(t *testing.T)  { runQuick(t, "E8") }
func TestE9(t *testing.T)  { runQuick(t, "E9") }
func TestE10(t *testing.T) { runQuick(t, "E10") }
func TestE11(t *testing.T) { runQuick(t, "E11") }
func TestE12(t *testing.T) { runQuick(t, "E12") }
func TestE13(t *testing.T) { runQuick(t, "E13") }
func TestE14(t *testing.T) { runQuick(t, "E14") }
func TestE15(t *testing.T) { runQuick(t, "E15") }
func TestE16(t *testing.T) { runQuick(t, "E16") }
func TestE17(t *testing.T) { runQuick(t, "E17") }
func TestE18(t *testing.T) { runQuick(t, "E18") }
func TestE19(t *testing.T) { runQuick(t, "E19") }

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Expectation == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely specified", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("All()[%d] has ID %s, want %s (IDs run E1…E19 in order)", i, e.ID, want)
		}
	}
	if e, ok := Lookup("e7"); !ok || e.ID != "E7" {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown ID should miss")
	}
}

func TestLookup(t *testing.T) {
	// Every ID resolves, in any case, to the experiment All() lists under it.
	for _, e := range All() {
		for _, id := range []string{e.ID, strings.ToLower(e.ID), strings.ToUpper(e.ID)} {
			got, ok := Lookup(id)
			if !ok || got.ID != e.ID || got.Title != e.Title {
				t.Errorf("Lookup(%q) missed the %s entry", id, e.ID)
			}
		}
	}
	// Only whole IDs match: no prefix, padding or leading-zero form.
	for _, id := range []string{"", "E", "E0", "E20", "E01", " E1", "E1 ", "E1E2"} {
		if got, ok := Lookup(id); ok {
			t.Errorf("Lookup(%q) = %s, want a miss", id, got.ID)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	// Same seed → identical tables (the whole pipeline is deterministic).
	exp, _ := Lookup("E2")
	cfg := harness.Config{Quick: true, Seed: 7}
	a := exp.Run(cfg)
	b := exp.Run(cfg)
	var sa, sb strings.Builder
	a.Render(&sa)
	b.Render(&sb)
	if sa.String() != sb.String() {
		t.Fatal("same seed produced different reports")
	}
}
