package experiments

import (
	"fmt"

	"termproto/internal/cluster"
	"termproto/internal/fsa"
	"termproto/internal/proto"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
)

// E1TwoPCAnalysis reproduces Figure 1's structural analysis: for two sites
// the extended protocol is derivable (slave w is committable, timeout goes
// to commit); for three sites the paper's two facts appear and both lemmas
// fail at the slave wait state.
func E1TwoPCAnalysis() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Fig. 1 — two-phase commit: concurrency sets and lemma verdicts",
		Columns: []string{"n", "state", "committable", "commit∈C", "abort∈C", "Rule(a) timeout"},
	}
	pass := true
	for _, n := range []int{2, 3} {
		a := fsa.Analyze(twopc.Protocol{}, n)
		for _, id := range []fsa.StateID{{Role: fsa.Slave, Name: "w"}, {Role: fsa.Master, Name: "w1"}} {
			t.row(
				fmt.Sprintf("%d", n), id.String(),
				boolCell(a.Committable[id]),
				boolCell(a.ConcurrencyContains(id, fsa.KindCommit)),
				boolCell(a.ConcurrencyContains(id, fsa.KindAbort)),
				a.RuleATimeout(id).String(),
			)
		}
		switch n {
		case 2:
			if !a.SatisfiesLemmas() {
				pass = false
			}
			t.notef("n=2: lemmas satisfied=%v (two-site extension is possible)", a.SatisfiesLemmas())
		case 3:
			w := fsa.StateID{Role: fsa.Slave, Name: "w"}
			fact1 := a.ConcurrencyContains(w, fsa.KindCommit) && a.ConcurrencyContains(w, fsa.KindAbort)
			fact2 := !a.Committable[w] && a.ConcurrencyContains(w, fsa.KindCommit)
			if !fact1 || !fact2 || a.SatisfiesLemmas() {
				pass = false
			}
			t.notef("n=3: paper fact 1 (both c,a in C(w)) = %v; fact 2 (noncommittable w with c in C) = %v", fact1, fact2)
			t.notef("n=3: Lemma 1 violations %v; Lemma 2 violations %v", a.Lemma1Violations(), a.Lemma2Violations())
		}
	}
	t.Pass = pass
	return t
}

// E2ExtendedTwoPCTwoSite verifies the Skeen–Stonebraker result the paper
// builds on: extended 2PC (Fig. 2, twopc.Protocol{Extended: true}) is
// resilient to two-site optimistic simple partitioning, over an exhaustive
// onset sweep × vote choices.
func E2ExtendedTwoPCTwoSite(cfg Config) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Fig. 2 — extended 2PC is resilient for two sites",
		Columns: []string{"votes", "onsets swept", "consistent", "nonblocking"},
	}
	t.Pass = true
	for _, votes := range []struct {
		name string
		v    proto.Voter
	}{{"all-yes", proto.AllYes}, {"slave-no", proto.NoAt(2)}} {
		runs, okC, okB := 0, 0, 0
		for at := sim.Time(0); at <= 6*Tt; at += cfg.onsetStep() {
			r, _ := cluster.RunOne(cluster.Config{
				Sites: 2, Protocol: twopc.Protocol{Extended: true}, Votes: votes.v,
				Schedule: cluster.Schedule{cluster.PartitionAt(at, 2)},
			}, cluster.SimOptions{}, cluster.Txn{})
			runs++
			if r.Consistent() {
				okC++
			}
			if len(r.Blocked()) == 0 {
				okB++
			}
		}
		if okC != runs || okB != runs {
			t.Pass = false
		}
		t.row(votes.name, fmt.Sprintf("%d", runs),
			fmt.Sprintf("%d/%d", okC, runs), fmt.Sprintf("%d/%d", okB, runs))
	}
	return t
}

// E3ExtTwoPCCounterexample replays the Section 3 observation verbatim
// against extended 2PC: master in the prepare state with commits
// outstanding, site 3 separated, commit_3 undeliverable ⇒ site 2 commits,
// site 3 aborts.
func E3ExtTwoPCCounterexample() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "§3 obs. 1 — extended 2PC fails with three sites",
		Columns: []string{"site", "final state", "outcome"},
	}
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{Extended: true},
		Schedule: cluster.Schedule{cluster.PartitionAt(2*Tt+1, 3)},
	}, cluster.SimOptions{}, cluster.Txn{})
	for i := proto.SiteID(1); i <= 3; i++ {
		t.row(fmt.Sprintf("%d", i), r.Sites[i].FinalState, r.Sites[i].Outcome.String())
	}
	t.Pass = !r.Consistent() &&
		r.Sites[2].Outcome == proto.Commit && r.Sites[3].Outcome == proto.Abort
	t.notef("verdict: %s — matches the paper (site 2 commits, site 3 times out and aborts)", verdict(r))
	return t
}

// E4ThreePCAnalysis reproduces Figure 3's structural analysis: 3PC
// satisfies both lemmas, and Rule(a) derives exactly the timeout targets
// the Section 3 second counterexample exploits (w→abort, p→commit).
func E4ThreePCAnalysis() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Fig. 3 — three-phase commit satisfies Lemma 1 and Lemma 2",
		Columns: []string{"state", "committable", "commit∈C", "abort∈C", "Rule(a) timeout"},
	}
	a := fsa.Analyze(threepc.Protocol{}, 3)
	for _, id := range a.States() {
		kind := ""
		if a.Kind(id) != fsa.KindNone {
			kind = " (final)"
		}
		t.row(id.String()+kind,
			boolCell(a.Committable[id]),
			boolCell(a.ConcurrencyContains(id, fsa.KindCommit)),
			boolCell(a.ConcurrencyContains(id, fsa.KindAbort)),
			a.RuleATimeout(id).String(),
		)
	}
	w := fsa.StateID{Role: fsa.Slave, Name: "w"}
	p := fsa.StateID{Role: fsa.Slave, Name: "p"}
	t.Pass = a.SatisfiesLemmas() &&
		a.RuleATimeout(w) == fsa.KindAbort && a.RuleATimeout(p) == fsa.KindCommit
	t.notef("lemmas satisfied = %v; %d reachable global states (n=3)", a.SatisfiesLemmas(), a.Reachable)
	t.notef("Rule(a): slave w→%s, slave p→%s (the assignments of §3 obs. 2)",
		a.RuleATimeout(w), a.RuleATimeout(p))
	return t
}

// E5ThreePCRulesCounterexample replays Section 3's second observation
// against 3PC augmented with the Rule(a) targets
// (threepc.Protocol{Rules: threepc.RuleA()}): prepare_3 undeliverable ⇒
// site 3 times out in w and aborts while site 2 times out in p and commits.
func E5ThreePCRulesCounterexample() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "§3 obs. 2 — Rule(a)/(b)-augmented 3PC fails with three sites",
		Columns: []string{"site", "final state", "outcome"},
	}
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: threepc.Protocol{Rules: threepc.RuleA()},
		Schedule: cluster.Schedule{cluster.PartitionAt(2*Tt+1, 3)},
	}, cluster.SimOptions{}, cluster.Txn{})
	for i := proto.SiteID(1); i <= 3; i++ {
		t.row(fmt.Sprintf("%d", i), r.Sites[i].FinalState, r.Sites[i].Outcome.String())
	}
	t.Pass = !r.Consistent() &&
		r.Sites[2].Outcome == proto.Commit && r.Sites[3].Outcome == proto.Abort
	t.notef("verdict: %s — matches the paper (w_3 timeout→abort vs p_2 timeout→commit)", verdict(r))
	return t
}

// E6Lemma3Search performs the Lemma 3 exhaustive search: every one of the
// 16 possible timeout/undeliverable augmentations of 3PC
// (threepc.AllAssignments, each run as threepc.Protocol{Rules: asg}) is
// defeated by some partition scenario — so no augmentation alone can be
// resilient and a separate termination protocol is necessary.
func E6Lemma3Search(cfg Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Lemma 3 — every timeout/UD augmentation of 3PC fails somewhere",
		Columns: []string{"w1→", "p1→", "w→", "p→", "defeated by", "failure"},
	}
	splits := [][]proto.SiteID{{3}, {2}, {2, 3}}
	voters := []struct {
		name string
		v    proto.Voter
	}{{"all-yes", proto.AllYes}, {"no@2", proto.NoAt(2)}, {"no@3", proto.NoAt(3)}}
	fracs := []float64{1.0, 0.5}

	allFail := true
	for _, asg := range threepc.AllAssignments() {
		found := ""
		fail := ""
	search:
		for _, frac := range fracs {
			for _, split := range splits {
				for _, vt := range voters {
					for at := sim.Time(0); at <= 8*Tt; at += cfg.onsetStep() {
						r, _ := cluster.RunOne(cluster.Config{
							Sites: 3, Protocol: threepc.Protocol{Rules: asg}, Votes: vt.v,
							Schedule: cluster.Schedule{cluster.PartitionAt(at, split...)},
						}, cluster.SimOptions{BoundaryFrac: frac}, cluster.Txn{})
						if !r.Consistent() || len(r.Blocked()) > 0 {
							found = fmt.Sprintf("G2=%v %s onset=%s f=%.1f",
								split, vt.name, tUnitsTime(at), frac)
							fail = verdict(r)
							break search
						}
					}
				}
			}
		}
		if found == "" {
			allFail = false
			found, fail = "—", "SURVIVED (Lemma 3 contradiction!)"
		}
		t.row(short(asg.MasterW), short(asg.MasterP), short(asg.SlaveW), short(asg.SlaveP), found, fail)
	}
	t.Pass = allFail
	t.notef("all 16 assignments defeated = %v (Lemma 3)", allFail)
	return t
}

func short(o proto.Outcome) string {
	if o == proto.Commit {
		return "c"
	}
	return "a"
}
