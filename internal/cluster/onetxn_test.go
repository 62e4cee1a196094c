package cluster_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// The one-transaction runs of the simulator: cluster.RunOne over every
// protocol, fault and vote the paper's arguments turn on.

const (
	T  = sim.DefaultT
	Tt = sim.Time(sim.DefaultT)
)

// traced keeps the trace the assertions read and a failure message dumps.
var traced = cluster.SimOptions{RecordTrace: true}

// partitionAt is the one-event schedule of a permanent partition.
func partitionAt(at sim.Time, g2 ...proto.SiteID) cluster.Schedule {
	return cluster.Schedule{cluster.PartitionAt(at, g2...)}
}

func allOutcomes(t *testing.T, r *cluster.TxnResult, want proto.Outcome) {
	t.Helper()
	for id, s := range r.Sites {
		if s.Outcome != want {
			t.Errorf("site %d outcome = %v, want %v (state %s)", id, s.Outcome, want, s.FinalState)
		}
	}
}

// --- failure-free commits and aborts for every protocol ---

// protocols is every registered protocol.
func protocols() []proto.Protocol {
	var out []proto.Protocol
	for _, name := range registry.Names() {
		p, _ := registry.Lookup(name)
		out = append(out, p)
	}
	return out
}

func TestFailureFreeCommit(t *testing.T) {
	for _, p := range protocols() {
		for _, n := range []int{2, 3, 5, 8} {
			r, _ := cluster.RunOne(cluster.Config{Sites: n, Protocol: p}, cluster.SimOptions{}, cluster.Txn{})
			if !r.Consistent() {
				t.Errorf("%s n=%d: inconsistent", p.Name(), n)
			}
			allOutcomes(t, r, proto.Commit)
			if len(r.Blocked()) != 0 {
				t.Errorf("%s n=%d: blocked sites %v", p.Name(), n, r.Blocked())
			}
		}
	}
}

func TestFailureFreeAbortOnNoVote(t *testing.T) {
	for _, p := range protocols() {
		r, _ := cluster.RunOne(cluster.Config{Sites: 4, Protocol: p, Votes: proto.NoAt(3)}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			t.Errorf("%s: inconsistent on no-vote", p.Name())
		}
		for id, s := range r.Sites {
			if s.Outcome != proto.Abort {
				t.Errorf("%s: site %d = %v, want abort", p.Name(), id, s.Outcome)
			}
		}
	}
}

func TestFailureFreeMasterNoVote(t *testing.T) {
	for _, p := range protocols() {
		r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: p, Votes: proto.NoAt(1)}, cluster.SimOptions{}, cluster.Txn{})
		if got := r.Sites[1].Outcome; got != proto.Abort {
			t.Errorf("%s: master = %v, want abort", p.Name(), got)
		}
		if !r.Consistent() {
			t.Errorf("%s: inconsistent", p.Name())
		}
	}
}

// No spurious timeouts: in failure-free runs with adversarial (maximal)
// latency, the Fig. 5 timeout intervals must never fire into a wrong
// decision. A commit must still happen even though every message takes
// exactly T.
func TestNoSpuriousTimeoutsAtMaxLatency(t *testing.T) {
	for _, p := range protocols() {
		r, _ := cluster.RunOne(cluster.Config{Sites: 5, Protocol: p}, cluster.SimOptions{Latency: simnet.Fixed{D: T}}, cluster.Txn{})
		allOutcomes(t, r, proto.Commit)
	}
}

// --- 2PC blocks under partition (the motivating defect) ---

func TestTwoPCBlocksUnderPartition(t *testing.T) {
	// Partition hits after the votes arrive (2T) but before the commits
	// land (3T): commit_3 bounces and site 3 sits in w forever holding
	// locks, while sites 1 and 2 commit.
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{}, Schedule: partitionAt(2*Tt+1, 3),
	}, cluster.SimOptions{}, cluster.Txn{})
	blocked := r.Blocked()
	if len(blocked) != 1 || blocked[0] != 3 {
		t.Fatalf("blocked = %v, want [3]", blocked)
	}
	if r.Sites[3].FinalState != "w" {
		t.Fatalf("site 3 state = %s, want w", r.Sites[3].FinalState)
	}
	if r.Sites[1].Outcome != proto.Commit || r.Sites[2].Outcome != proto.Commit {
		t.Fatalf("G1 should have committed: 1=%v 2=%v", r.Sites[1].Outcome, r.Sites[2].Outcome)
	}
}

func TestTwoPCMasterBlocksWhenVotesLost(t *testing.T) {
	// Partition before the votes return: the master never collects yes_3
	// and blocks in w1 along with every slave — total blocking.
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{}, Schedule: partitionAt(Tt+Tt/2, 3),
	}, cluster.SimOptions{}, cluster.Txn{})
	if got := len(r.Blocked()); got != 3 {
		t.Fatalf("blocked %d sites, want all 3", got)
	}
	if r.Sites[1].FinalState != "w1" {
		t.Fatalf("master state = %s, want w1", r.Sites[1].FinalState)
	}
}

// --- E3: the Section 3 counterexample against extended 2PC ---

// The paper's observation: global state <p1, w2, w3>, outstanding
// <-, commit2, commit3>; the partition separates site 3 and makes commit3
// undeliverable. Site 2 receives commit2 and commits while site 3 times
// out and aborts.
func TestExtTwoPCMultisiteCounterexample(t *testing.T) {
	// Timeline (T = 1000): xact at 0→T; yes arrives 2T; commits sent at 2T
	// (master in p1). Partition at 2T+1 separates {3}: commit2 delivered
	// at 3T, commit3 bounces.
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{Extended: true}, Schedule: partitionAt(2*Tt+1, 3),
	}, cluster.SimOptions{}, cluster.Txn{})
	if got := r.Sites[2].Outcome; got != proto.Commit {
		t.Fatalf("site 2 = %v, want commit", got)
	}
	if got := r.Sites[3].Outcome; got != proto.Abort {
		t.Fatalf("site 3 = %v, want abort (paper's counterexample)", got)
	}
	if r.Consistent() {
		t.Fatal("extended 2PC should be INconsistent in the multisite case")
	}
	if len(r.Blocked()) != 0 {
		t.Fatalf("extended 2PC blocked: %v (should be nonblocking-but-wrong)", r.Blocked())
	}
}

// Extended 2PC is resilient for two sites (the Skeen–Stonebraker result the
// paper builds on): sweep partition onsets across the whole execution.
func TestExtTwoPCTwoSiteResilience(t *testing.T) {
	for at := sim.Time(0); at <= 6*sim.Time(T); at += sim.Time(T) / 8 {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 2, Protocol: twopc.Protocol{Extended: true}, Schedule: partitionAt(at, 2),
		}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			t.Fatalf("onset %d: inconsistent (site1=%v site2=%v)", at, r.Sites[1].Outcome, r.Sites[2].Outcome)
		}
		if len(r.Blocked()) != 0 {
			t.Fatalf("onset %d: blocked %v", at, r.Blocked())
		}
	}
}

// --- E5: the Section 3 counterexample against rules-augmented 3PC ---

// "If site3 is in state w3 waiting for prepare3 and site2 is in state p2
// waiting for commit2 when partitioning occurs which renders prepare3
// undeliverable, then site3 will timeout and abort while site2 will timeout
// and commit."
func TestThreePCRulesCounterexample(t *testing.T) {
	// xact 0→T, yes 2T, prepares sent 2T. Partition at 2T+1 separates {3}:
	// prepare2 delivered 3T (site2 → p2), prepare3 bounces.
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: threepc.Protocol{Rules: threepc.RuleA()}, Schedule: partitionAt(2*Tt+1, 3),
	}, cluster.SimOptions{}, cluster.Txn{})
	if got := r.Sites[3].Outcome; got != proto.Abort {
		t.Fatalf("site 3 = %v, want abort", got)
	}
	if got := r.Sites[2].Outcome; got != proto.Commit {
		t.Fatalf("site 2 = %v, want commit", got)
	}
	if r.Consistent() {
		t.Fatal("rules-augmented 3PC should be INconsistent here")
	}
}

// --- Theorem 9: the termination protocol is resilient ---

func TestTerminationPermanentPartitionSweep(t *testing.T) {
	splits := [][]proto.SiteID{{2}, {3}, {4}, {2, 3}, {3, 4}, {2, 4}, {2, 3, 4}}
	for _, split := range splits {
		for at := sim.Time(0); at <= 8*sim.Time(T); at += sim.Time(T) / 4 {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{}, Schedule: partitionAt(at, split...),
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("split %v onset %d: INCONSISTENT\n%s", split, at, b.Trace().Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("split %v onset %d: blocked %v\n%s", split, at, r.Blocked(), b.Trace().Dump())
			}
		}
	}
}

// Lemma 8 / the G2-commit law: slaves in G2 commit iff a prepare message
// crossed the boundary B.
func TestTerminationG2CommitLaw(t *testing.T) {
	for at := sim.Time(0); at <= 8*sim.Time(T); at += sim.Time(T) / 8 {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 5, Protocol: core.Protocol{}, Schedule: partitionAt(at, 4, 5),
		}, traced, cluster.Txn{})
		if !r.Consistent() || len(r.Blocked()) != 0 {
			t.Fatalf("onset %d: consistent=%v blocked=%v", at, r.Consistent(), r.Blocked())
		}
		prepareCrossed := b.Trace().CrossDelivered("prepare") > 0
		g2Committed := r.Sites[4].Outcome == proto.Commit
		if prepareCrossed != g2Committed {
			t.Fatalf("onset %d: prepare crossed B=%v but G2 committed=%v\n%s",
				at, prepareCrossed, g2Committed, b.Trace().Dump())
		}
		// Lemma 5/6: within each group the outcome is uniform.
		if r.Sites[4].Outcome != r.Sites[5].Outcome {
			t.Fatalf("onset %d: G2 outcomes differ", at)
		}
		if r.Sites[1].Outcome != r.Sites[2].Outcome || r.Sites[2].Outcome != r.Sites[3].Outcome {
			t.Fatalf("onset %d: G1 outcomes differ", at)
		}
	}
}

// Randomized Theorem 9 sweep: random n, split, onset, latencies, votes.
func TestTerminationRandomizedResilience(t *testing.T) {
	rng := sim.NewRand(20260610)
	runs := 400
	if testing.Short() {
		runs = 60
	}
	for i := 0; i < runs; i++ {
		n := 3 + rng.Intn(6) // 3..8
		var split []proto.SiteID
		for s := 2; s <= n; s++ {
			if rng.Bool() {
				split = append(split, proto.SiteID(s))
			}
		}
		if len(split) == 0 || len(split) == n-1 && rng.Bool() {
			split = []proto.SiteID{proto.SiteID(2 + rng.Intn(n-1))}
		}
		onset := sim.Time(rng.Int63n(int64(9 * T)))
		cfg := cluster.Config{Sites: n, Protocol: core.Protocol{}, Schedule: partitionAt(onset, split...)}
		opts := cluster.SimOptions{
			Latency:     simnet.Uniform{Lo: sim.Duration(T) / 4, Hi: T},
			Seed:        rng.Uint64(),
			RecordTrace: true,
		}
		if rng.Intn(4) == 0 {
			cfg.Votes = proto.NoAt(proto.SiteID(2 + rng.Intn(n-1)))
		}
		if rng.Intn(3) == 0 {
			opts.BoundaryFrac = 0.5
		}
		r, b := cluster.RunOne(cfg, opts, cluster.Txn{})
		if !r.Consistent() {
			t.Fatalf("run %d (n=%d split=%v onset=%d): INCONSISTENT\n%s",
				i, n, split, onset, b.Trace().Dump())
		}
		if len(r.Blocked()) != 0 {
			t.Fatalf("run %d (n=%d split=%v onset=%d): blocked %v\n%s",
				i, n, split, onset, r.Blocked(), b.Trace().Dump())
		}
	}
}

// The tie case from DESIGN.md §5.1: a UD(prepare) returning exactly when
// the master's p1 timer fires must be processed first, or the master would
// commit G1 while G2 aborts. The yes round runs one tick under T so the
// master reaches p1 strictly before its w1 deadline; the bounced prepare's
// UD copy then returns at exactly the p1 timer's instant.
func TestTerminationUDTimerTie(t *testing.T) {
	run := func(timersFirst bool) (*cluster.TxnResult, *cluster.SimBackend) {
		return cluster.RunOne(cluster.Config{
			Sites: 3, Protocol: core.Protocol{}, Schedule: partitionAt(2*Tt+1, 3),
		}, cluster.SimOptions{
			Latency: simnet.PerKind{
				Default: T,
				Rules:   []simnet.KindRule{{Kind: proto.MsgYes, D: T - 1}},
			},
			RecordTrace: true,
			TimersFirst: timersFirst,
		}, cluster.Txn{})
	}
	r, b := run(false)
	// The master must actually have hit the tie: it entered the p1u
	// collection window rather than timing out to commit.
	entered := b.Trace().Filter(func(e trace.Event) bool {
		return e.Kind == trace.Transition && e.ToState == "p1u"
	})
	if len(entered) == 0 {
		t.Fatalf("construction missed the tie: master never entered p1u\n%s", b.Trace().Dump())
	}
	if !r.Consistent() {
		t.Fatalf("tie case inconsistent: 1=%v 2=%v 3=%v\n%s",
			r.Sites[1].Outcome, r.Sites[2].Outcome, r.Sites[3].Outcome, b.Trace().Dump())
	}
	if len(r.Blocked()) != 0 {
		t.Fatalf("tie case blocked: %v", r.Blocked())
	}

	// Flipping the tie-break recreates the hazard: the master times out
	// first, commits G1, and the prepare-less G2 slave aborts.
	flipped, fb := run(true)
	if flipped.Consistent() {
		t.Fatalf("timers-first tie should be inconsistent\n%s", fb.Trace().Dump())
	}
}

// --- E10: the Figure 8 w→c transition is necessary ---

func TestWToCTransitionNecessity(t *testing.T) {
	// Build the §5.3 "fly in the ointment": sites 3 and 4 in G2; site 3
	// received a prepare and its ack bounces, so it broadcasts commit; the
	// broadcast reaches site 4 at 2.9T — while site 4 is still in w (its
	// 3T timer runs to 4T). That commit is site 4's ONLY commit: the
	// master's later commit bounces at B. Without the Figure 8 w → c
	// transition site 4 drops it, times out, waits 6T and aborts —
	// inconsistent with its committed G2 peer.
	//
	// Per-pair delays (T=1000): xact 1→3 in 200, yes 3→1 in 300, so the
	// fast slave's ack (sent 2200) is caught crossing at 2500; commit
	// 3→4 in 100 arrives 2900 < site 4's w-timeout at 4000.
	lat := simnet.PerPair{
		Default: T,
		Pairs: map[[2]proto.SiteID]sim.Duration{
			{1, 3}: 200,
			{3, 1}: 300,
			{3, 4}: 100,
		},
	}
	run := func(p proto.Protocol) (*cluster.TxnResult, *cluster.SimBackend) {
		return cluster.RunOne(cluster.Config{Sites: 4, Protocol: p, Schedule: partitionAt(2500, 3, 4)},
			cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	}

	fixed, b := run(core.Protocol{})
	if !fixed.Consistent() || len(fixed.Blocked()) != 0 {
		t.Fatalf("modified protocol failed: consistent=%v blocked=%v\n%s",
			fixed.Consistent(), fixed.Blocked(), b.Trace().Dump())
	}
	if got := fixed.Sites[4].Outcome; got != proto.Commit {
		t.Fatalf("site 4 = %v, want commit via the w→c transition", got)
	}

	broken, b := run(core.Protocol{DisableWToC: true})
	if broken.Consistent() {
		t.Fatalf("w→c-less protocol should be inconsistent here; outcomes: 3=%v 4=%v\n%s",
			broken.Sites[3].Outcome, broken.Sites[4].Outcome, b.Trace().Dump())
	}
	if got := broken.Sites[3].Outcome; got != proto.Commit {
		t.Fatalf("site 3 = %v, want commit (UD(ack) path)", got)
	}
	if got := broken.Sites[4].Outcome; got != proto.Abort {
		t.Fatalf("site 4 = %v, want abort (missed its only commit)", got)
	}
}

// --- Result bookkeeping ---

func TestResultAccessors(t *testing.T) {
	r, b := cluster.RunOne(cluster.Config{Sites: 3, Protocol: core.Protocol{}}, cluster.SimOptions{}, cluster.Txn{})
	if r.Outcome() != proto.Commit || !r.Committed() {
		t.Errorf("outcome %v after a commit run", r.Outcome())
	}
	if r.MaxDecisionTime() == 0 {
		t.Error("MaxDecisionTime should be > 0")
	}
	if st := b.NetStats(); st.MsgsSent == 0 || st.MsgsDelivered == 0 {
		t.Error("message counters empty")
	}
	if !r.Decided() {
		t.Error("Decided false with no blocked sites")
	}
}

func TestRunPanicsOnBadOptions(t *testing.T) {
	for name, cfg := range map[string]cluster.Config{
		"n<2":         {Sites: 1, Protocol: core.Protocol{}},
		"nilProtocol": {Sites: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			cluster.RunOne(cfg, cluster.SimOptions{}, cluster.Txn{})
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		_, b := cluster.RunOne(cluster.Config{
			Sites: 5, Protocol: core.Protocol{}, Schedule: partitionAt(2500, 3, 5),
		}, cluster.SimOptions{
			Latency:     simnet.Uniform{Lo: 100, Hi: 1000},
			Seed:        77,
			RecordTrace: true,
		}, cluster.Txn{})
		return b.Trace().Dump()
	}
	a, b := run(), run()
	if a == "" || a != b {
		t.Fatal("identical scenario+seed produced different traces")
	}
}
