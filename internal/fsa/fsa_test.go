package fsa

import (
	"reflect"
	"strings"
	"testing"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/twopc"
)

var (
	twoPC   = twopc.Protocol{}
	threePC = threepc.Protocol{}
	fourPC  = core.Protocol{FourPhase: true, TransientFix: true}
)

// --- E1: two-phase commit structure (Figure 1) ---

// For two sites, 2PC's slave wait state is committable (the only slave has
// voted) and its concurrency set holds a commit but no abort — so Rule(a)
// assigns timeout-to-commit and the extended protocol is sound.
func TestTwoPCTwoSiteStructure(t *testing.T) {
	a := Analyze(twoPC, 2)
	w := StateID{Slave, "w"}

	if !a.ConcurrencyContains(w, KindCommit) {
		t.Error("C(slave.w) should contain master.c1 for n=2")
	}
	if a.ConcurrencyContains(w, KindAbort) {
		t.Error("C(slave.w) should not contain an abort state for n=2")
	}
	if !a.Committable[w] {
		t.Error("slave.w is committable for n=2 (its occupant is the only voter)")
	}
	if got := a.RuleATimeout(w); got != KindCommit {
		t.Errorf("Rule(a) timeout for slave.w = %v, want commit", got)
	}
	if !a.SatisfiesLemmas() {
		t.Error("2PC with n=2 should satisfy both lemmas")
	}
}

// For three sites the paper's two facts appear: the slave wait state has
// both a commit and an abort in its concurrency set (fact 1, violating
// Lemma 1) and is noncommittable with a commit in its concurrency set
// (fact 2, violating Lemma 2).
func TestTwoPCMultisiteViolations(t *testing.T) {
	a := Analyze(twoPC, 3)
	w := StateID{Slave, "w"}

	if !a.ConcurrencyContains(w, KindCommit) || !a.ConcurrencyContains(w, KindAbort) {
		t.Fatalf("C(slave.w) = %v: want both commit and abort (paper fact 1)", a.ConcurrencySet(w))
	}
	if a.Committable[w] {
		t.Error("slave.w must be noncommittable for n=3 (paper fact 2)")
	}

	l1 := a.Lemma1Violations()
	if len(l1) == 0 {
		t.Fatal("no Lemma 1 violations found; paper requires slave.w")
	}
	found := false
	for _, id := range l1 {
		if id == w {
			found = true
		}
	}
	if !found {
		t.Errorf("Lemma 1 violations %v missing slave.w", l1)
	}

	l2 := a.Lemma2Violations()
	found = false
	for _, id := range l2 {
		if id == w {
			found = true
		}
	}
	if !found {
		t.Errorf("Lemma 2 violations %v missing slave.w", l2)
	}
	if a.SatisfiesLemmas() {
		t.Error("2PC with n=3 must fail the lemmas")
	}
}

// --- E4: three-phase commit structure (Figure 3) ---

func TestThreePCSatisfiesLemmas(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, modified := range []bool{false, true} {
			a := Analyze(threepc.Protocol{Modified: modified}, n)
			if !a.SatisfiesLemmas() {
				t.Errorf("3PC(modified=%v) n=%d: lemma violations L1=%v L2=%v",
					modified, n, a.Lemma1Violations(), a.Lemma2Violations())
			}
		}
	}
}

func TestThreePCConcurrencySets(t *testing.T) {
	a := Analyze(threePC, 3)

	// The paper's Section 3 second observation needs: abort ∈ C(w_slave),
	// commit ∈ C(p_slave), p_slave ∈ C(w_slave).
	w, p := StateID{Slave, "w"}, StateID{Slave, "p"}
	if !a.ConcurrencyContains(w, KindAbort) {
		t.Error("abort should be in C(slave.w)")
	}
	if a.ConcurrencyContains(w, KindCommit) {
		t.Error("no commit may be in C(slave.w) — Lemma 2 for 3PC")
	}
	if !a.ConcurrencyContains(p, KindCommit) {
		t.Error("commit should be in C(slave.p)")
	}
	if a.ConcurrencyContains(p, KindAbort) {
		t.Error("no abort may be in C(slave.p) — Lemma 1 for 3PC")
	}
	if !a.Concurrency[w][p] {
		t.Error("slave.p should be in C(slave.w)")
	}

	// Rule(a) then derives exactly the assignments of the Section 3
	// counterexample: w times out to abort, p times out to commit.
	if got := a.RuleATimeout(w); got != KindAbort {
		t.Errorf("Rule(a) slave.w = %v, want abort", got)
	}
	if got := a.RuleATimeout(p); got != KindCommit {
		t.Errorf("Rule(a) slave.p = %v, want commit", got)
	}
	// And the master: no commit concurrent with w1 or p1.
	if got := a.RuleATimeout(StateID{Master, "w1"}); got != KindAbort {
		t.Errorf("Rule(a) master.w1 = %v, want abort", got)
	}
	if got := a.RuleATimeout(StateID{Master, "p1"}); got != KindAbort {
		t.Errorf("Rule(a) master.p1 = %v, want abort", got)
	}
}

func TestThreePCCommittability(t *testing.T) {
	a := Analyze(threePC, 3)
	want := map[StateID]bool{
		{Master, "q1"}: false,
		{Master, "w1"}: false,
		{Master, "p1"}: true,
		{Master, "c1"}: true,
		{Slave, "q"}:   false,
		{Slave, "w"}:   false,
		{Slave, "p"}:   true,
		{Slave, "c"}:   true,
	}
	for id, wantComm := range want {
		got, reachable := a.Committable[id]
		if !reachable {
			t.Errorf("%v unreachable", id)
			continue
		}
		if got != wantComm {
			t.Errorf("committable(%v) = %v, want %v", id, got, wantComm)
		}
	}
	// The abort states are reachable but never with all-yes... a1 via a
	// no-vote is definitionally noncommittable.
	if a.Committable[StateID{Slave, "a"}] {
		t.Error("slave.a should be noncommittable (reachable via no-vote)")
	}
}

// The pure Fig. 3 slave also takes p --abort--> a, which the figure does
// not draw, so the probed S(slave.p) holds master.w1, abort's sender.
func TestSenderSets(t *testing.T) {
	a := Analyze(threePC, 3)
	cases := []struct {
		id   StateID
		want []StateID
	}{
		{StateID{Slave, "w"}, []StateID{{Master, "w1"}}},                 // prepare, abort sent from w1
		{StateID{Slave, "p"}, []StateID{{Master, "p1"}, {Master, "w1"}}}, // commit from p1, abort from w1
		{StateID{Master, "w1"}, []StateID{{Slave, "q"}}},                 // yes/no sent from q
		{StateID{Master, "p1"}, []StateID{{Slave, "w"}}},                 // ack sent from w
		{StateID{Slave, "q"}, []StateID{{Master, "q1"}}},                 // xact sent from q1
		{StateID{Master, "q1"}, nil},                                     // q1 receives nothing
	}
	for _, c := range cases {
		if got := a.SenderSet(c.id); !reflect.DeepEqual(got, c.want) {
			t.Errorf("S(%v) = %v, want %v", c.id, got, c.want)
		}
	}
}

// --- E14 precondition: the four-phase protocol satisfies the lemmas ---

func TestFourPCSatisfiesLemmas(t *testing.T) {
	for _, n := range []int{2, 3} {
		a := Analyze(fourPC, n)
		if !a.SatisfiesLemmas() {
			t.Errorf("4PC n=%d: L1=%v L2=%v", n, a.Lemma1Violations(), a.Lemma2Violations())
		}
		// pre goes out only after every slave voted yes, and
		// committability is about votes, so e is committable.
		if !a.Committable[StateID{Slave, "e"}] {
			t.Error("slave.e should be committable (pre only sent after all yes)")
		}
		if !a.Committable[StateID{Slave, "p"}] {
			t.Error("slave.p should be committable")
		}
	}
}

// TestFourPhaseConcurrencySets pins every four-phase state's concurrency
// set at n = 3. The master leaves each round only on its last reply: on
// the first preack instead, a slave still in w would be concurrent with
// master.p1 and with the slaves in p.
func TestFourPhaseConcurrencySets(t *testing.T) {
	a := Analyze(fourPC, 3)
	ids := func(names ...string) []StateID {
		var out []StateID
		for _, n := range names {
			role, name, _ := strings.Cut(n, ".")
			out = append(out, StateID{role, name})
		}
		return out
	}
	want := map[string][]StateID{
		"master.q1": ids("slave.q"),
		"master.w1": ids("slave.a", "slave.q", "slave.w"),
		"master.e1": ids("slave.e", "slave.w"),
		"master.p1": ids("slave.e", "slave.p"),
		"master.c1": ids("slave.c", "slave.p"),
		"master.a1": ids("slave.a", "slave.q", "slave.w"),
		"slave.q":   ids("master.a1", "master.q1", "master.w1", "slave.a", "slave.q", "slave.w"),
		"slave.w":   ids("master.a1", "master.e1", "master.w1", "slave.a", "slave.e", "slave.q", "slave.w"),
		"slave.e":   ids("master.e1", "master.p1", "slave.e", "slave.p", "slave.w"),
		"slave.p":   ids("master.c1", "master.p1", "slave.c", "slave.e", "slave.p"),
		"slave.c":   ids("master.c1", "slave.c", "slave.p"),
		"slave.a":   ids("master.a1", "master.w1", "slave.a", "slave.q", "slave.w"),
	}
	if got := len(a.States()); got != len(want) {
		t.Errorf("%d reachable local states %v, want %d", got, a.States(), len(want))
	}
	for id, set := range want {
		sid := ids(id)[0]
		if got := a.ConcurrencySet(sid); !reflect.DeepEqual(got, set) {
			t.Errorf("C(%s) = %v, want %v", id, got, set)
		}
	}
}

// TestReachableCountsStable pins the number of reachable global states.
// A shipped master takes its votes and acks one delivery at a time, so
// the counts exceed a figure's, where "all yes" is one transition.
func TestReachableCountsStable(t *testing.T) {
	for _, c := range []struct {
		p    proto.Protocol
		n    int
		want int
	}{
		{twoPC, 2, 8}, {twoPC, 3, 64},
		{threePC, 2, 10}, {threePC, 3, 72},
		{fourPC, 3, 80},
	} {
		if got := Analyze(c.p, c.n).Reachable; got != c.want {
			t.Errorf("%s n=%d: %d reachable global states, want %d", c.p.Name(), c.n, got, c.want)
		}
	}
}

func TestSummaryRendersLemmaVerdicts(t *testing.T) {
	good := Analyze(threePC, 3).Summary()
	if !strings.Contains(good, "Lemma 1 satisfied") || !strings.Contains(good, "Lemma 2 satisfied") {
		t.Errorf("3PC summary missing satisfied verdicts:\n%s", good)
	}
	bad := Analyze(twoPC, 3).Summary()
	if !strings.Contains(bad, "Lemma 1 VIOLATED") {
		t.Errorf("2PC summary missing violation verdict:\n%s", bad)
	}
}

func TestAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=1 did not panic")
		}
	}()
	Analyze(twoPC, 1)
}

func TestStateKindString(t *testing.T) {
	if KindCommit.String() != "commit" || KindAbort.String() != "abort" || KindNone.String() != "·" {
		t.Error("StateKind strings wrong")
	}
}

func TestDOTOutput(t *testing.T) {
	dot := Analyze(threePC, 3).DOT()
	for _, frag := range []string{
		"digraph", "cluster_master", "cluster_slave",
		"doublecircle", "diamond", "yes/prepare", "xact/yes",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
}

func TestTextOutput(t *testing.T) {
	txt := Analyze(twoPC, 2).Text()
	for _, frag := range []string{
		"protocol 2pc", "role master (initial q1)", "request/xact",
		"c1[commit]", "a[abort]",
	} {
		if !strings.Contains(txt, frag) {
			t.Errorf("Text missing %q", frag)
		}
	}
}
