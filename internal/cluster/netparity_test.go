package cluster

import (
	"fmt"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// netT is the wall value of T for the multi-process backend in tests:
// wide enough that process spawn and the polls on the wire connection stay
// well inside protocol timing.
const netT = 100 * time.Millisecond

func netBackend(t *testing.T) *NetBackend {
	t.Helper()
	return NewNetBackend(NetOptions{
		T: netT, Workdir: t.TempDir(), Seed: 11,
	})
}

// put is a one-key write of "v". A payload-less transaction votes yes at
// an engine site without touching the engine, so a test that means to
// exercise the daemons' engines sends one of these.
func put(key string) []byte {
	return engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
}

func parityBatch() []Txn {
	return []Txn{
		{Payload: put("a")},
		{At: sim.Time(sim.DefaultT / 2), Payload: put("b")},
		{At: sim.Time(sim.DefaultT), Payload: put("c"), Votes: NoAt(2)},
		{At: sim.Time(3 * sim.DefaultT / 2), Payload: put("d")},
	}
}

func runBatch(t *testing.T, backend Backend, batch []Txn) (*Cluster, []*TxnResult) {
	t.Helper()
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: backend,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	rs, err := c.SubmitBatch(batch)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return c, rs
}

// TestNetParityOutcomes runs a fault-free batch through real termnode
// processes. The daemons step the site.Table the simulator steps, so what
// is left to check is the process boundary: the scripted no-vote must
// cross it in the submission envelope and abort its transaction, the run
// must satisfy the termination property, and the daemons' engines must
// converge on the committed keys.
func TestNetParityOutcomes(t *testing.T) {
	nb := netBackend(t)
	netC, netRS := runBatch(t, nb, parityBatch())

	want := []proto.Outcome{proto.Commit, proto.Commit, proto.Abort, proto.Commit}
	for i, r := range netRS {
		if r.Outcome() != want[i] {
			t.Errorf("txn %d: %s, want %s", r.TID, r.Outcome(), want[i])
		}
	}
	if err := netC.Termination(); err != nil {
		t.Errorf("net termination: %v", err)
	}
	// The replica check Termination can't do from outside the processes.
	snaps := nb.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots from %d/3 nodes", len(snaps))
	}
	for id, snap := range snaps {
		for _, key := range []string{"a", "b", "d"} {
			if string(snap[key]) != "v" {
				t.Errorf("site %d: key %q = %q, want \"v\"", id, key, snap[key])
			}
		}
		if _, ok := snap["c"]; ok {
			t.Errorf("site %d holds key of aborted txn", id)
		}
	}
}

// TestNetParityTransientPartition scripts the paper's transient-partition
// scenario against real processes: a minority cut at 2.5T — every
// daemon's link blocklist, from one shared instant — healing at 7T. The
// exact outcomes are timing-dependent, but the safety aggregate is not:
// every transaction decided everywhere, no site disagrees, nothing blocks.
func TestNetParityTransientPartition(t *testing.T) {
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend:  netBackend(t),
		Schedule: Schedule{PartitionAt(sim.Time(5*sim.DefaultT/2), 3), HealAt(sim.Time(7 * sim.DefaultT))},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	if _, err := c.SubmitBatch(parityBatch()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := c.Termination(); err != nil {
		t.Errorf("termination: %v", err)
	}
	st := c.Stats()
	if st.Committed+st.Aborted != st.Submitted || st.Blocked != 0 || st.Inconsistent != 0 {
		t.Errorf("stats not conserved: %s", st)
	}
}

// TestNetCrashAfterPrepared scripts the coordinator crash through the
// cluster API against real processes: SIGKILL at 0.8T — after the slaves
// hold the transaction but before the decision propagates — then a
// scheduled recovery. The restarted daemon must resolve the in-doubt
// transaction over a real MsgInquire round trip, and every site must end
// agreeing with the slaves' unilateral termination decision.
func TestNetCrashAfterPrepared(t *testing.T) {
	nb := netBackend(t)
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: nb,
		Schedule: Schedule{
			CrashAt(sim.Time(8*sim.DefaultT/10), 1),
			RecoverAt(sim.Time(8*sim.DefaultT), 1),
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "crash", Value: []byte("v")}})
	r, err := c.Submit(Txn{Master: 1, Payload: ops})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	recs := c.Recoveries()
	if len(recs) != 1 || recs[0].Site != 1 {
		t.Fatalf("recoveries = %v, want one for site 1", recs)
	}
	if recs[0].Err != nil || recs[0].Stats.Unresolved != 0 {
		t.Fatalf("recovery did not fully resolve: %+v", recs[0])
	}
	if !r.Consistent() {
		t.Fatalf("atomicity violated: %+v", r.Sites)
	}
	if b := r.Blocked(); len(b) != 0 {
		t.Fatalf("blocked sites %v", b)
	}
	// Whatever the race decided, the recovered coordinator must agree
	// with the slaves, and the committed state must be replicated (or
	// absent) identically everywhere.
	outcome := r.Outcome()
	if outcome == proto.None {
		t.Fatal("no site decided")
	}
	if recs[0].Stats.InDoubt > 0 &&
		recs[0].Stats.ResolvedCommit+recs[0].Stats.ResolvedAbort != recs[0].Stats.InDoubt {
		t.Fatalf("in-doubt not resolved by inquiry: %+v", recs[0].Stats)
	}
	for id, snap := range nb.Snapshots() {
		got := string(snap["crash"])
		if outcome == proto.Commit && got != "v" {
			t.Errorf("site %d: crash = %q after commit", id, got)
		}
		if outcome == proto.Abort && got != "" {
			t.Errorf("site %d: crash = %q after abort", id, got)
		}
	}
}

// TestNetCrashedParticipantExcluded: the roster rule is the driver's, as
// on the simulator, so a participant that
// was SIGKILLed before the submission fires is not invited, the survivors
// commit instead of waiting out a vote timer on a corpse, and the restarted
// daemon's catch-up pulls the key it missed.
func TestNetCrashedParticipantExcluded(t *testing.T) {
	nb := netBackend(t)
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: nb,
		Schedule: Schedule{
			CrashAt(sim.Time(sim.DefaultT), 3),
			RecoverAt(sim.Time(8*sim.DefaultT), 3),
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "missed", Value: []byte("v")}})
	r, err := c.Submit(Txn{Master: 1, At: sim.Time(3 * sim.DefaultT), Payload: ops})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !r.Sites[3].Crashed || r.Sites[3].Outcome != proto.None {
		t.Errorf("crashed participant: %+v", r.Sites[3])
	}
	for _, id := range []proto.SiteID{1, 2} {
		if r.Sites[id].Outcome != proto.Commit {
			t.Errorf("site %d should commit without the dead site: %+v", id, r.Sites[id])
		}
	}
	recs := c.Recoveries()
	if len(recs) != 1 || recs[0].Site != 3 || recs[0].Err != nil {
		t.Fatalf("recoveries = %v, want one clean recovery of site 3", recs)
	}
	t.Logf("recovery: %s", recs[0])
	snaps := nb.Snapshots()
	for _, id := range []proto.SiteID{1, 2, 3} {
		if got := string(snaps[id]["missed"]); got != "v" {
			t.Errorf("site %d: missed = %q, want \"v\" (site 3 by catch-up)", id, got)
		}
	}
}

// netInDoubtRestart runs one put of key through three daemons under sched,
// which SIGKILLs site 3 at 0.9T and restarts it at 12.5T. Link delays are
// drawn from [T/4, T/2], so by then site 3's yes vote is durable and no
// decision can have reached it (five hops, at least 1.25T): the restart
// finds the transaction in doubt. An inquiry that goes unanswered costs
// its 4T timeout, so a schedule that partitions heals at 30T, after the
// recovery ends. A precondition the clock broke — a late delivery that
// aborted the transaction, or a kill outside the window — is returned as
// an error for the caller to retry on fresh daemons; safety violations
// fail the test directly.
func netInDoubtRestart(t *testing.T, nb *NetBackend, key string, sched Schedule) (*TxnResult, RecoveryReport, error) {
	t.Helper()
	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{TransientFix: true}, Backend: nb, Schedule: sched})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
	r, err := c.Submit(Txn{Master: 1, Payload: ops})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !r.Consistent() || !r.Decided() {
		t.Fatalf("survivors blocked or inconsistent: %+v", r.Sites)
	}
	if r.Outcome() != proto.Commit {
		return nil, RecoveryReport{}, fmt.Errorf("txn aborted (slow delivery): %v", r.Outcome())
	}
	reps := c.Recoveries()
	if len(reps) != 1 || reps[0].Site != 3 || reps[0].Err != nil {
		t.Fatalf("recoveries = %v, want one clean recovery of site 3", reps)
	}
	if reps[0].Stats.InDoubt != 1 {
		return nil, RecoveryReport{}, fmt.Errorf("site 3 not in doubt (kill missed the window): %v", reps[0].Stats)
	}
	return r, reps[0], nil
}

// netRetry runs a scenario whose timing preconditions may fail on a loaded
// host up to three times, each on fresh daemons.
func netRetry(t *testing.T, scenario func(nb *NetBackend) error) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = scenario(netBackend(t)); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, err)
	}
	t.Fatalf("timing preconditions never held: %v", err)
}

// TestLiveRecoveryResolvesInDoubt: site 3 restarts in doubt with every
// peer reachable. Its MsgInquire round over real traffic resolves the
// transaction to the survivors' commit, and the restarted daemon applies
// the write it voted for before the kill.
func TestLiveRecoveryResolvesInDoubt(t *testing.T) {
	netRetry(t, func(nb *NetBackend) error {
		r, rep, err := netInDoubtRestart(t, nb, "doubt", Schedule{
			CrashAt(900, 3),
			RecoverAt(12_500, 3),
		})
		if err != nil {
			return err
		}
		if rep.Stats.ResolvedCommit != 1 || rep.Stats.Unresolved != 0 {
			t.Fatalf("in-doubt txn not resolved to the survivors' commit: %v", rep.Stats)
		}
		if got := r.Sites[3]; got.Outcome != proto.Commit {
			t.Errorf("site 3 after its recovery: %+v, want commit", got)
		}
		for id, snap := range nb.Snapshots() {
			if got := string(snap["doubt"]); got != "v" {
				t.Errorf("site %d: doubt = %q, want \"v\"", id, got)
			}
		}
		return nil
	})
}

// TestNetRecoveryCoordinatorUnreachable: the coordinator is cut off when
// the in-doubt site restarts. The restarted daemon's MsgInquire to site 1
// dies at the boundary, and its fellow slave's durable commit resolves the
// transaction — the committed write is there after the recovery alone.
func TestNetRecoveryCoordinatorUnreachable(t *testing.T) {
	netRetry(t, func(nb *NetBackend) error {
		_, rep, err := netInDoubtRestart(t, nb, "cut", Schedule{
			CrashAt(900, 3),
			PartitionAt(11_500, 1),
			RecoverAt(12_500, 3),
			HealAt(30_000),
		})
		if err != nil {
			return err
		}
		if rep.Stats.ResolvedCommit != 1 || rep.Stats.Unresolved != 0 {
			t.Fatalf("in-doubt txn not resolved to the survivors' commit: %v", rep.Stats)
		}
		for id, snap := range nb.Snapshots() {
			if got := string(snap["cut"]); got != "v" {
				t.Errorf("site %d: cut = %q, want \"v\"", id, got)
			}
		}
		return nil
	})
}

// TestNetHealRetryResolvesUnresolved: site 3 restarts while a partition
// isolates it from every decided peer. It boots behind the cut, so its
// recovery inquiries come back undeliverable — not lost — and leave the
// transaction unresolved, the key locked and unapplied. The heal edge
// re-runs the inquiry round over real traffic and the transaction
// resolves to the survivors' commit without another restart.
func TestNetHealRetryResolvesUnresolved(t *testing.T) {
	netRetry(t, func(nb *NetBackend) error {
		r, rep, err := netInDoubtRestart(t, nb, "heal", Schedule{
			CrashAt(900, 3),
			PartitionAt(11_000, 3),
			RecoverAt(12_500, 3),
			HealAt(30_000),
		})
		if err != nil {
			return err
		}
		if rep.Stats.Unresolved != 1 || rep.Stats.ResolvedCommit != 0 {
			t.Fatalf("isolated restart should leave the txn unresolved: %v", rep.Stats)
		}
		st, err := nb.net.Client(3).Stats()
		if err != nil {
			t.Fatalf("site 3 stats: %v", err)
		}
		if st.Bounced < 2 || st.Dropped != 0 {
			t.Errorf("site 3 bounced %d and dropped %d messages, want its inquiries to sites 1 and 2 bounced and none lost",
				st.Bounced, st.Dropped)
		}
		if got := r.Sites[3]; got.Outcome != proto.Commit {
			t.Errorf("site 3 after the heal: %+v, want commit", got)
		}
		for id, snap := range nb.Snapshots() {
			if got := string(snap["heal"]); got != "v" {
				t.Errorf("site %d: heal = %q, want \"v\" (site 3 by the heal retry)", id, got)
			}
		}
		return nil
	})
}
