// Analysis: the formal side of the paper. Computes concurrency sets and
// committability for two-phase and three-phase commit via exhaustive
// global-state reachability, checks the Lemma 1 / Lemma 2 conditions, and
// derives the Rule(a) timeout assignments — mechanically rediscovering
// both why 2PC cannot be repaired for three or more sites (Section 3,
// facts 1 and 2) and exactly which timeout targets the 3PC counterexample
// exploits.
package main

import (
	"fmt"

	"termproto"
)

func main() {
	fmt.Println("== two-phase commit (Fig. 1) ==")
	for _, n := range []int{2, 3} {
		a := termproto.Analyze(termproto.TwoPC(), n)
		fmt.Printf("\n--- %d sites ---\n", n)
		fmt.Print(a.Summary())
	}
	fmt.Println("\nThe slave wait state for n=3 has BOTH a commit and an abort in its")
	fmt.Println("concurrency set (fact 1) and is noncommittable with a commit in its")
	fmt.Println("concurrency set (fact 2) — so by Lemmas 1 and 2 no timeout/UD")
	fmt.Println("augmentation can make multisite 2PC resilient.")

	fmt.Println("\n== three-phase commit (Fig. 3), 3 sites ==")
	a := termproto.Analyze(termproto.ThreePC(), 3)
	fmt.Print(a.Summary())
	w := termproto.StateID{Role: "slave", Name: "w"}
	p := termproto.StateID{Role: "slave", Name: "p"}
	fmt.Printf("\nRule(a) timeout targets: slave.w → %s, slave.p → %s\n",
		a.RuleATimeout(w), a.RuleATimeout(p))
	fmt.Println("— the exact assignments whose interaction Section 3's second")
	fmt.Println("counterexample breaks, proving a separate termination protocol is")
	fmt.Println("needed (Lemma 3).")

	fmt.Println("\n== four-phase generalization (Theorem 10 precondition) ==")
	a4 := termproto.Analyze(termproto.TerminationOptions{FourPhase: true, TransientFix: true}, 3)
	fmt.Print(a4.Summary())
}
