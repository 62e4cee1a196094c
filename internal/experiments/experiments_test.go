package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"termproto/internal/sim"
)

var quick = Config{Quick: true}

var update = flag.Bool("update", false, "rewrite testdata/all.golden from this tree")

// Every experiment must reproduce its paper claim. Each gets its own test
// so a regression names the artifact that broke.

func requirePass(t *testing.T, tbl *Table) {
	t.Helper()
	if !tbl.Pass {
		t.Fatalf("%s did not reproduce the paper:\n%s", tbl.ID, tbl)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", tbl.ID)
	}
}

func TestE1(t *testing.T)  { requirePass(t, E1TwoPCAnalysis()) }
func TestE2(t *testing.T)  { requirePass(t, E2ExtendedTwoPCTwoSite(quick)) }
func TestE3(t *testing.T)  { requirePass(t, E3ExtTwoPCCounterexample()) }
func TestE4(t *testing.T)  { requirePass(t, E4ThreePCAnalysis()) }
func TestE5(t *testing.T)  { requirePass(t, E5ThreePCRulesCounterexample()) }
func TestE6(t *testing.T)  { requirePass(t, E6Lemma3Search(quick)) }
func TestE7(t *testing.T)  { requirePass(t, E7Fig5Timeouts()) }
func TestE8(t *testing.T)  { requirePass(t, E8Fig6MasterWindow(quick)) }
func TestE9(t *testing.T)  { requirePass(t, E9Fig7SlaveWindow(quick)) }
func TestE10(t *testing.T) { requirePass(t, E10Fig8WToC()) }
func TestE11(t *testing.T) { requirePass(t, E11Fig9CaseBounds(quick)) }
func TestE12(t *testing.T) { requirePass(t, E12TransientFix()) }
func TestE13(t *testing.T) { requirePass(t, E13Theorem9Resilience(quick)) }

// TestE14 runs the full 400-run sweep (≈ 15 ms): the quick one's 40 runs
// miss a four-phase master that leaves e1 on its first pre-ack.
func TestE14(t *testing.T) { requirePass(t, E14Theorem10FourPC(Config{})) }
func TestE15(t *testing.T) { requirePass(t, E15Ablations(quick)) }

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("All in quick mode still runs 15 sweeps")
	}
	tables := All(quick)
	if len(tables) != 15 {
		t.Fatalf("All returned %d tables, want 15", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment ID %s", tbl.ID)
		}
		seen[tbl.ID] = true
		requirePass(t, tbl)
	}
}

// TestAllGolden pins the rendered text of the full-mode suite, as
// cmd/experiments prints it: a change that claims to leave every experiment
// as it was leaves testdata/all.golden byte-identical. A change meant to
// move a table regenerates the file with `go test ./internal/experiments
// -run TestAllGolden -update` and says which rows moved and why.
func TestAllGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tbl := range All(Config{}) {
		fmt.Fprintln(&got, tbl)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d moved:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Pass:    true,
	}
	tbl.row("1", "2")
	tbl.row("wide-cell", "3")
	tbl.notef("note %d", 7)
	s := tbl.String()
	for _, frag := range []string{"=== EX: demo [ok]", "long-column", "wide-cell", "note: note 7"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
	tbl.Pass = false
	if !strings.Contains(tbl.String(), "[FAIL]") {
		t.Error("failing table not marked FAIL")
	}
}

func TestUnitHelpers(t *testing.T) {
	if got := tUnits(sim.Duration(T) * 5); got != "5.00T" {
		t.Errorf("tUnits = %q", got)
	}
	if got := tUnits(T / 2); got != "0.50T" {
		t.Errorf("tUnits = %q", got)
	}
	if got := tUnitsTime(2 * Tt); got != "2.00T" {
		t.Errorf("tUnitsTime = %q", got)
	}
	if boolCell(true) != "yes" || boolCell(false) != "no" {
		t.Error("boolCell")
	}
}

func TestConfigSizes(t *testing.T) {
	if (Config{}).onsetStep() >= (Config{Quick: true}).onsetStep() {
		t.Error("full mode should sweep finer than quick mode")
	}
	if (Config{}).randomRuns() <= (Config{Quick: true}).randomRuns() {
		t.Error("full mode should run more scenarios")
	}
}
