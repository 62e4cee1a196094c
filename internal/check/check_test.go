package check

import (
	"fmt"
	"strings"
	"testing"

	"termproto/internal/db/engine"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// The adversarial fixtures: each hand-crafts a history that violates one
// invariant and asserts the checker flags it — the checker's own tier-1
// safety net. A checker that waves a split decision through is worse than
// no checker at all.

func rules(vs []Violation) map[Rule]int {
	out := map[Rule]int{}
	for _, v := range vs {
		out[v.Rule]++
	}
	return out
}

// decide emits the Decide event a backend writes when a site settles.
func decide(at sim.Time, site int, tid uint64, outcome string) trace.Event {
	return trace.Event{At: at, Kind: trace.Decide, Site: site, TID: tid, Outcome: outcome}
}

// A split decision — one site commits what the others abort — must be
// flagged as an agreement violation carrying the offending sub-history.
func TestDetectsSplitDecision(t *testing.T) {
	events := []trace.Event{
		decide(100, 1, 7, "commit"),
		decide(110, 2, 7, "abort"),
		decide(120, 3, 7, "abort"),
	}
	vs := Check(Input{Events: events})
	if rules(vs)[RuleAgreement] == 0 {
		t.Fatalf("split decision not flagged: %v", vs)
	}
	for _, v := range vs {
		if v.Rule != RuleAgreement {
			continue
		}
		if v.TID != 7 {
			t.Errorf("violation names txn %d, want 7", v.TID)
		}
		if len(v.Events) == 0 {
			t.Error("violation carries no sub-history")
		}
	}
}

// Re-deciding a transaction differently after a restart is a durability
// loss even when the final outcomes happen to agree site-by-site.
func TestDetectsFlippedRedecision(t *testing.T) {
	events := []trace.Event{
		decide(100, 1, 3, "commit"),
		{At: 150, Kind: trace.Crash, Site: 1},
		{At: 200, Kind: trace.Recover, Site: 1},
		decide(210, 1, 3, "abort"), // the restart forgot the commit
	}
	vs := Check(Input{Events: events})
	if rules(vs)[RuleDurability] == 0 {
		t.Fatalf("flipped re-decision not flagged: %v", vs)
	}
}

// A decision present in the trace but absent from the site's durable
// state at quiescence means a crash would erase it — flagged.
func TestDetectsLostDurableDecision(t *testing.T) {
	events := []trace.Event{decide(100, 1, 5, "commit")}
	vs := Check(Input{
		Events:  events,
		Durable: map[int]map[uint64]string{1: {}},
	})
	if rules(vs)[RuleDurability] == 0 {
		t.Fatalf("lost durable decision not flagged: %v", vs)
	}

	// And a durable record contradicting the traced decision likewise.
	vs = Check(Input{
		Events:  events,
		Durable: map[int]map[uint64]string{1: {5: "abort"}},
	})
	if rules(vs)[RuleDurability] == 0 {
		t.Fatalf("contradicting durable decision not flagged: %v", vs)
	}

	// Sites without durable evidence are not accused.
	vs = Check(Input{
		Events:  events,
		Durable: map[int]map[uint64]string{2: {}},
	})
	if rules(vs)[RuleDurability] != 0 {
		t.Fatalf("site without evidence accused: %v", vs)
	}
}

// Replicas that disagree on a key's committed value at quiescence violate
// convergence; keys still held unstable by an in-flight transaction are
// not judged.
func TestDetectsDivergedReplicas(t *testing.T) {
	in := Input{
		Events: []trace.Event{decide(10, 1, 1, "commit")},
		Snapshots: map[int]map[string][]byte{
			1: {"acct/0": engine.EncodeInt(60)},
			2: {"acct/0": engine.EncodeInt(75)},
		},
	}
	vs := Check(in)
	if rules(vs)[RuleConvergence] == 0 {
		t.Fatalf("diverged replicas not flagged: %v", vs)
	}

	in.Unstable = map[int]map[string]bool{2: {"acct/0": true}}
	if vs := Check(in); rules(vs)[RuleConvergence] != 0 {
		t.Fatalf("unstable key judged: %v", vs)
	}
}

// A committed total that does not equal accounts × balance means money
// was created or destroyed — the conservation rule must fire.
func TestDetectsConservationBreak(t *testing.T) {
	vs := Check(Input{
		Events: []trace.Event{decide(10, 1, 1, "commit")},
		Snapshots: map[int]map[string][]byte{
			1: {"acct/0": engine.EncodeInt(90), "acct/1": engine.EncodeInt(105)},
		},
		Conservation: &Conservation{
			Keys:    []string{"acct/0", "acct/1"},
			Primary: func(string) int { return 1 },
			Total:   200,
		},
	})
	if rules(vs)[RuleConservation] == 0 {
		t.Fatalf("conservation break not flagged: %v", vs)
	}
}

// Two debits that each fit a balance but together overdraw it keep the
// sum intact — the money went somewhere — so only the negative-balance
// check sees them, at every site that holds the overdrawn key.
func TestDetectsNegativeBalance(t *testing.T) {
	overdrawn := map[string][]byte{"acct/0": engine.EncodeInt(-20), "acct/1": engine.EncodeInt(220)}
	vs := Check(Input{
		Events:    []trace.Event{decide(10, 1, 1, "commit"), decide(11, 1, 2, "commit")},
		Snapshots: map[int]map[string][]byte{1: overdrawn, 2: overdrawn},
		Conservation: &Conservation{
			Keys:    []string{"acct/0", "acct/1"},
			Primary: func(string) int { return 1 },
			Total:   200,
		},
	})
	if len(vs) != 2 {
		t.Fatalf("overdraft flagged as %v, want acct/0 at sites 1 and 2", vs)
	}
	for i, v := range vs {
		if want := fmt.Sprintf(`"acct/0" is overdrawn at site %d`, i+1); v.Rule != RuleConservation || !strings.Contains(v.Detail, want) {
			t.Fatalf("violation %d = %v, want a conservation violation: %s", i, v, want)
		}
	}
}

// boundedCaseTrace builds a §6 case 2.1 history (some prepares cross the
// boundary, some bounce, an ack bounces) where site 2 sits in pt for
// `wait` ticks before deciding.
func boundedCaseTrace(wait sim.Duration) []trace.Event {
	t := sim.Time(0)
	return []trace.Event{
		{At: t + 10, Kind: trace.Send, Site: 1, From: 1, To: 2, MsgKind: "xact", TID: 9},
		{At: t + 20, Kind: trace.PartitionOn},
		{At: t + 30, Kind: trace.Deliver, Site: 2, From: 1, To: 2, MsgKind: "prepare", TID: 9, Cross: true},
		{At: t + 30, Kind: trace.Bounce, Site: 1, From: 1, To: 3, MsgKind: "prepare", TID: 9, Cross: true},
		{At: t + 40, Kind: trace.Bounce, Site: 2, From: 2, To: 1, MsgKind: "ack", TID: 9, Cross: true},
		{At: t + 50, Kind: trace.Transition, Site: 2, TID: 9, FromState: "p", ToState: "pt"},
		decide(t+50+sim.Time(wait), 2, 9, "commit"),
	}
}

// A prepared site waiting far beyond the case bound (plus the checker's
// slack for the implementation's probe cadence) is flagged; a wait inside
// the allowance is not.
func TestDetectsBoundOverrun(t *testing.T) {
	overrun := sim.Duration(20 * sim.DefaultT)
	vs := Check(Input{Events: boundedCaseTrace(overrun)})
	if rules(vs)[RuleBound] == 0 {
		t.Fatalf("bound overrun not flagged: %v", vs)
	}
	for _, v := range vs {
		if v.Rule == RuleBound && !strings.Contains(v.Detail, "2.1") {
			t.Errorf("violation does not name case 2.1: %s", v.Detail)
		}
	}

	ok := sim.Duration(3 * sim.DefaultT)
	if vs := Check(Input{Events: boundedCaseTrace(ok)}); rules(vs)[RuleBound] != 0 {
		t.Fatalf("in-bound wait flagged: %v", vs)
	}

	// SkipBounds silences the rule entirely (real-network traces).
	if vs := Check(Input{Events: boundedCaseTrace(overrun), SkipBounds: true}); rules(vs)[RuleBound] != 0 {
		t.Fatalf("SkipBounds did not skip: %v", vs)
	}
}

// A clean history with agreeing decisions, durable records, converged
// replicas and a conserved total produces no violations.
func TestCleanRunPasses(t *testing.T) {
	events := []trace.Event{
		{At: 10, Kind: trace.Send, Site: 1, From: 1, To: 2, MsgKind: "xact", TID: 1},
		decide(100, 1, 1, "commit"),
		decide(110, 2, 1, "commit"),
	}
	state := map[string][]byte{
		"acct/0": engine.EncodeInt(90),
		"acct/1": engine.EncodeInt(110),
	}
	vs := Check(Input{
		Events:    events,
		Snapshots: map[int]map[string][]byte{1: state, 2: state},
		Durable: map[int]map[uint64]string{
			1: {1: "commit"},
			2: {1: "commit"},
		},
		Conservation: &Conservation{
			Keys:    []string{"acct/0", "acct/1"},
			Primary: func(string) int { return 1 },
			Total:   200,
		},
	})
	if len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

// SubHistory extracts exactly the transaction's events, preserving order.
func TestSubHistory(t *testing.T) {
	events := []trace.Event{
		{At: 1, Kind: trace.Send, TID: 1},
		{At: 2, Kind: trace.Send, TID: 2},
		{At: 3, Kind: trace.Deliver, TID: 1},
		{At: 4, Kind: trace.PartitionOn},
	}
	sub := SubHistory(events, 1)
	if len(sub) != 2 || sub[0].At != 1 || sub[1].At != 3 {
		t.Fatalf("SubHistory = %+v", sub)
	}
}
