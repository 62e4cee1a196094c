// Package experiments regenerates every analytical artifact of Huang & Li
// (ICDE 1987) — the figures, counterexamples, lemma verdicts and timing
// bounds — as printable tables. DESIGN.md §4 maps each experiment ID to
// its paper artifact; EXPERIMENTS.md records paper-vs-measured results.
//
// Every experiment is deterministic: fixed seeds, exhaustive or
// fixed-grid sweeps, and the deterministic simulator underneath.
package experiments

import (
	"fmt"
	"strings"

	"termproto/internal/cluster"
	"termproto/internal/sim"
)

// T is the longest end-to-end delay used by every experiment.
const T = sim.DefaultT

// Tt is T as a sim.Time for partition-onset arithmetic.
const Tt = sim.Time(T)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Pass reports whether the experiment reproduced the paper's claim.
	Pass bool
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	verdict := "FAIL"
	if t.Pass {
		verdict = "ok"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", t.ID, t.Title, verdict)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func (t *Table) row(cells ...string) { t.Rows = append(t.Rows, cells) }

func (t *Table) notef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// tUnits renders a duration as a multiple of T ("5.00T").
func tUnits(d sim.Duration) string {
	return fmt.Sprintf("%.2fT", float64(d)/float64(T))
}

// tUnitsTime renders a virtual time as a multiple of T.
func tUnitsTime(tm sim.Time) string { return tUnits(sim.Duration(tm)) }

func boolCell(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// verdict summarizes a run for counterexample tables.
func verdict(r *cluster.TxnResult) string {
	switch {
	case !r.Consistent():
		return "INCONSISTENT"
	case len(r.Blocked()) > 0:
		return fmt.Sprintf("blocked %v", r.Blocked())
	default:
		return "consistent"
	}
}

// Config tunes sweep sizes. Quick shrinks the grids for unit tests; the
// default (Full) is what cmd/experiments and the benchmarks run.
type Config struct {
	Quick bool
}

// onsetStep returns the partition-onset sweep step.
func (c Config) onsetStep() sim.Time {
	if c.Quick {
		return Tt / 2
	}
	return Tt / 8
}

// randomRuns returns the number of randomized scenarios per protocol.
func (c Config) randomRuns() int {
	if c.Quick {
		return 40
	}
	return 400
}

// All runs every experiment and returns the tables in order.
func All(cfg Config) []*Table {
	return []*Table{
		E1TwoPCAnalysis(),
		E2ExtendedTwoPCTwoSite(cfg),
		E3ExtTwoPCCounterexample(),
		E4ThreePCAnalysis(),
		E5ThreePCRulesCounterexample(),
		E6Lemma3Search(cfg),
		E7Fig5Timeouts(),
		E8Fig6MasterWindow(cfg),
		E9Fig7SlaveWindow(cfg),
		E10Fig8WToC(),
		E11Fig9CaseBounds(cfg),
		E12TransientFix(),
		E13Theorem9Resilience(cfg),
		E14Theorem10FourPC(cfg),
		E15Ablations(cfg),
	}
}
