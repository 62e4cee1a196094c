package cluster

import (
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// dbEngines builds per-site engines over their own WAL stores with
// `accounts` integer rows, returning both the participant map and the
// typed engines for assertions.
func dbEngines(sites, accounts int, balance int64) (map[proto.SiteID]Participant, map[proto.SiteID]*engine.Engine) {
	parts := make(map[proto.SiteID]Participant, sites)
	engs := make(map[proto.SiteID]*engine.Engine, sites)
	for i := 1; i <= sites; i++ {
		e := engine.New(fmt.Sprintf("site-%d", i), &wal.MemStore{})
		for a := 0; a < accounts; a++ {
			e.PutInt(fmt.Sprintf("acct/%d", a), balance)
		}
		parts[proto.SiteID(i)] = e
		engs[proto.SiteID(i)] = e
	}
	return parts, engs
}

// recoveryScenario is the acceptance scenario of the durable-recovery
// subsystem on the simulator:
//
//   - site 5 crashes after logging RecPrepared for txn 1 but before
//     learning the decision; the survivors decide via the protocol;
//   - txn 2 commits while site 5 is down (site 5 is no participant);
//   - site 5 recovers: the WAL replay surfaces txn 1 in doubt, the
//     inquiry round resolves it to the survivors' outcome, and catch-up
//     pulls txn 2's writes;
//   - when masterCut is set, a partition separates the coordinator
//     (site 1) from everyone else before the recovery and heals later —
//     the in-doubt inquiry must succeed against a non-coordinator peer;
//   - a final transaction runs with site 5 participating again.
//
// The crash at 2.5T sits strictly between site 5's yes vote (1T under
// Fixed{T} latency) and the commit's arrival (5T).
func recoveryScenario(t *testing.T, masterCut bool) {
	t.Helper()
	const sites, accounts = 5, 6
	parts, engs := dbEngines(sites, accounts, 1000)
	sched := Schedule{CrashAt(2500, 5)}
	if masterCut {
		sched = append(sched, PartitionAt(11_500, 1), HealAt(20_000))
	}
	sched = append(sched, RecoverAt(12_500, 5))
	c, err := Open(Config{
		Sites:        sites,
		Protocol:     core.Protocol{TransientFix: true},
		Participants: parts,
		Schedule:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r1, err := c.Submit(Txn{Payload: transfer(0, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	var r2 *TxnResult
	if !masterCut {
		// Committed while site 5 is down: catch-up material.
		if r2, err = c.Submit(Txn{Payload: transfer(2, 3, 25), At: 6000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	if !r1.Sites[5].Crashed {
		t.Fatalf("site 5 not marked crashed on txn 1: %+v", r1.Sites[5])
	}
	if !r1.Decided() || !r1.Consistent() || (r2 != nil && (!r2.Decided() || !r2.Consistent())) {
		t.Fatalf("survivors blocked or inconsistent: txn1=%+v txn2=%+v", r1, r2)
	}
	if r1.Outcome() != proto.Commit || r2 != nil && r2.Outcome() != proto.Commit {
		t.Fatalf("txn 1 = %v, txn 2 = %+v: want commits", r1.Outcome(), r2)
	}

	// The recovery resolved txn 1 at site 5 to the survivors' outcome.
	reps := c.Recoveries()
	if len(reps) != 1 {
		t.Fatalf("recoveries = %d, want 1 (%v)", len(reps), reps)
	}
	rep := reps[0]
	if rep.Site != 5 || rep.Err != nil {
		t.Fatalf("recovery report: %v", rep)
	}
	if rep.Stats.InDoubt != 1 || rep.Stats.ResolvedCommit != 1 || rep.Stats.Unresolved != 0 {
		t.Fatalf("in-doubt txn not resolved to the survivors' commit: %v", rep.Stats)
	}
	if o, ok := engs[5].Outcome(uint64(r1.TID)); !ok || o != proto.Commit {
		t.Fatalf("site 5 durable outcome for txn 1 = %v/%v, want commit", o, ok)
	}
	if r2 != nil && rep.Stats.CaughtUpKeys == 0 {
		t.Fatalf("catch-up pulled nothing despite txn 2 committing while site 5 was down: %v", rep.Stats)
	}
	if len(engs[5].InDoubt()) != 0 {
		t.Fatalf("site 5 still in doubt after recovery: %v", engs[5].InDoubt())
	}

	// Site 5 participates again after its restart (21T is past the heal
	// in the masterCut variant; the sim clamps past times to now).
	r3, err := c.Submit(Txn{Payload: transfer(4, 5, 7), At: 21_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r3.Sites[5].Crashed || !r3.Decided() || r3.Outcome() != proto.Commit {
		t.Fatalf("post-recovery txn: site5=%+v outcome=%v", r3.Sites[5], r3.Outcome())
	}

	// The headline property: everything decided, atomically, and the
	// recovered replica byte-identical to its peers.
	if err := c.Termination(); err != nil {
		t.Fatalf("termination violated: %v", err)
	}
	if st := c.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats recoveries = %d", st.Recoveries)
	}
}

// TestSimRecoveryResolvesInDoubt: the deterministic acceptance scenario.
func TestSimRecoveryResolvesInDoubt(t *testing.T) { recoveryScenario(t, false) }

// TestSimRecoveryCoordinatorUnreachable: the nasty case — the coordinator
// is still partitioned away when the site restarts; a fellow slave's
// durable decision resolves the in-doubt transaction.
func TestSimRecoveryCoordinatorUnreachable(t *testing.T) { recoveryScenario(t, true) }

// TestSimHealRetryResolvesUnresolved: the recovery-time retry. Site 5
// crashes with txn 1 prepared, and restarts while a partition isolates it
// from every decided peer — the inquiry round finds nobody and the
// transaction stays in doubt, locks held. When the partition heals, the
// backend re-runs the inquiry round without waiting for another restart:
// the stranded transaction resolves to the survivors' commit at the heal
// edge.
func TestSimHealRetryResolvesUnresolved(t *testing.T) {
	const sites, accounts = 5, 6
	parts, engs := dbEngines(sites, accounts, 1000)
	c, err := Open(Config{
		Sites:        sites,
		Protocol:     core.Protocol{TransientFix: true},
		Participants: parts,
		Schedule: Schedule{
			CrashAt(2500, 5),
			PartitionAt(11_000, 5), // isolates the restarting site from everyone
			RecoverAt(12_500, 5),
			HealAt(20_000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r1, err := c.Submit(Txn{Payload: transfer(0, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r1.Outcome() != proto.Commit || !r1.Decided() {
		t.Fatalf("txn 1: outcome=%v blocked=%v", r1.Outcome(), r1.Blocked())
	}

	reps := c.Recoveries()
	if len(reps) != 2 {
		t.Fatalf("recoveries = %d, want restart + heal retry (%v)", len(reps), reps)
	}
	restart, retry := reps[0], reps[1]
	if restart.Retry || restart.Stats.Unresolved != 1 || restart.Stats.ResolvedCommit != 0 {
		t.Fatalf("isolated restart should leave txn 1 unresolved: %v", restart)
	}
	if !retry.Retry || retry.Stats.ResolvedCommit != 1 || retry.Stats.Unresolved != 0 {
		t.Fatalf("heal retry should resolve txn 1 to commit: %v", retry)
	}
	if retry.At != 20_000 {
		t.Fatalf("retry ran at t=%d, want the heal edge 20000", retry.At)
	}
	if o, ok := engs[5].Outcome(uint64(r1.TID)); !ok || o != proto.Commit {
		t.Fatalf("site 5 durable outcome = %v/%v, want commit", o, ok)
	}
	if len(engs[5].InDoubt()) != 0 {
		t.Fatalf("site 5 still holds in-doubt locks: %v", engs[5].InDoubt())
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("termination: %v", err)
	}
}

// TestSimRecoveryInquiryBouncesBehindCut: recovery speaks the paper's
// network. A restart behind a cut sends real inquiries, which come back as
// bounces in the trace; the heal-edge retry's decision for the in-doubt
// transaction lands a round trip (2T) after the heal, not at it; and each
// report's Done is that much after its At.
func TestSimRecoveryInquiryBouncesBehindCut(t *testing.T) {
	parts, engs := dbEngines(5, 6, 1000)
	b := NewSimBackend(SimOptions{RecordTrace: true})
	c, err := Open(Config{
		Sites: 5, Protocol: core.Protocol{TransientFix: true}, Participants: parts, Backend: b,
		Schedule: Schedule{CrashAt(2500, 5), PartitionAt(11_000, 5), RecoverAt(12_500, 5), HealAt(20_000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r1, err := c.Submit(Txn{Payload: transfer(0, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	bounced := 0
	for _, ev := range b.Trace().Messages(trace.Bounce, "inquire") {
		if ev.From == 5 && ev.TID == uint64(r1.TID) && ev.At > 12_500 && ev.At < 20_000 {
			bounced++
		}
	}
	if bounced != 4 {
		t.Fatalf("%d inquiries from the restart behind the cut bounced, want 4 (one per peer)", bounced)
	}
	var decided []sim.Time
	for _, ev := range b.Trace().Messages(trace.Deliver, "commit") {
		if ev.To == 5 && ev.TID == uint64(r1.TID) {
			decided = append(decided, ev.At)
		}
	}
	if len(decided) == 0 || decided[0] < 20_000+sim.Time(2*sim.DefaultT) {
		t.Fatalf("site 5 learned txn 1's commit at %v, want no earlier than 2T after the heal", decided)
	}
	if o, _ := engs[5].Outcome(uint64(r1.TID)); o != proto.Commit {
		t.Fatalf("site 5 durable outcome = %v, want commit", o)
	}
	for _, rep := range c.Recoveries() {
		if rep.Done <= rep.At || (rep.Retry && rep.Done < rep.At+sim.Time(2*sim.DefaultT)) {
			t.Fatalf("report %v: took no simulated time", rep)
		}
	}
}

// TestSimRecoveryShardedCatchUp: sharded placement — the recovering site
// reconciles each hosted shard from that shard's surviving replicas, and
// per-shard-replica-group convergence holds at the end.
func TestSimRecoveryShardedCatchUp(t *testing.T) {
	const sites, accounts = 6, 18
	d := placement.NewDirectory(mustArithmetic(t, sites, 3, sites))
	parts, engs := directoryEngines(d, sites, accounts, 1000)
	c, err := Open(Config{
		Sites:        sites,
		Protocol:     core.Protocol{TransientFix: true},
		Directory:    d,
		Participants: parts,
		Schedule: Schedule{
			CrashAt(2500, 6),
			RecoverAt(40_000, 6),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Offered load over every account: some transactions host at site 6
	// (in doubt or missed), the rest don't touch it at all.
	var batch []Txn
	for a := 0; a < accounts; a++ {
		batch = append(batch, Txn{
			Payload: transfer(a, (a+1)%accounts, 3),
			At:      sim.Time(a) * 1500,
		})
	}
	if _, err := c.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	reps := c.Recoveries()
	if len(reps) != 1 || reps[0].Err != nil {
		t.Fatalf("recoveries: %v", reps)
	}
	if reps[0].Stats.Unresolved != 0 {
		t.Fatalf("unresolved in-doubt transactions after recovery: %v", reps[0].Stats)
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("termination violated: %v", err)
	}
	if len(engs[6].InDoubt()) != 0 {
		t.Fatalf("site 6 still in doubt: %v", engs[6].InDoubt())
	}
}
