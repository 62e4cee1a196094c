package cluster

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/netnode"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/threepc"
	"termproto/internal/sim"
	"termproto/internal/trace"
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

// daemonSnapshots reads each running daemon's committed state over its
// admin API.
func daemonSnapshots(t *testing.T, nb *NetBackend) map[int]map[string][]byte {
	t.Helper()
	out := make(map[int]map[string][]byte)
	nb.eachAlive(func(id proto.SiteID, c *netnode.Client) {
		snap, _, err := c.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of site %d: %v", id, err)
		}
		out[int(id)] = snap
	})
	return out
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
// cross it in the submission envelope and abort its transaction, Verify
// must find nothing, and the daemons' engines must hold the committed keys.
func TestNetParityOutcomes(t *testing.T) {
	nb := netBackend(t)
	netC, netRS := runBatch(t, nb, parityBatch())

	want := []proto.Outcome{proto.Commit, proto.Commit, proto.Abort, proto.Commit}
	for i, r := range netRS {
		if r.Outcome() != want[i] {
			t.Errorf("txn %d: %s, want %s", r.TID, r.Outcome(), want[i])
		}
	}
	mustVerify(t, netC)
	// Verify compared the daemons' replicas, replayed from their logs;
	// these are the values they serve.
	snaps := daemonSnapshots(t, nb)
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

// TestNetEvidenceFromDaemons: a net run's evidence is what the daemons
// leave. After a fault-free batch it holds one snapshot and one durable
// decision map per daemon, replayed from its WAL file; Close adds the
// trace files the daemons stream, merged, in which every transaction
// decides; and Verify finds nothing either time.
func TestNetEvidenceFromDaemons(t *testing.T) {
	c, rs := runBatch(t, netBackend(t), parityBatch())
	in := c.Evidence()
	if len(in.Snapshots) != 3 || len(in.Masters) != len(rs) || !in.SkipBounds {
		t.Fatalf("evidence: %d snapshots, %d masters, skip bounds %v; want 3, %d, true",
			len(in.Snapshots), len(in.Masters), in.SkipBounds, len(rs))
	}
	mustVerify(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	in = c.Evidence()
	if len(in.Snapshots) != 3 || len(in.Events) == 0 {
		t.Fatalf("after Close: %d snapshots, %d events", len(in.Snapshots), len(in.Events))
	}
	for id := 1; id <= 3; id++ {
		if d := in.Durable[id]; len(d) != len(rs) {
			t.Errorf("site %d's log holds %d durable decisions (%v), want %d", id, len(d), d, len(rs))
		}
	}
	decided := make(map[uint64]bool)
	for _, e := range in.Events {
		if e.Kind == trace.Decide {
			decided[e.TID] = true
		}
	}
	for _, r := range rs {
		if !decided[uint64(r.TID)] {
			t.Errorf("txn %d decides nowhere in the merged trace", r.TID)
		}
	}
	mustVerify(t, c)
}

// TestNetKilledIncarnationLeavesItsTrace: a SIGKILLed daemon leaves what it
// traced and what it logged. Site 1 decides two transactions and is
// killed; its restarted incarnation decides a third. Site 3 is killed at
// the end and never restarted. The merged trace holds site 1's decisions
// from both incarnations, site 3's log is its durable evidence though it
// has no snapshot, and Verify finds nothing.
func TestNetKilledIncarnationLeavesItsTrace(t *testing.T) {
	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{TransientFix: true}, Backend: netBackend(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wait := func() {
		t.Helper()
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.SubmitBatch([]Txn{{Master: 1, Payload: put("a")}, {Master: 1, Payload: put("b")}})
	if err != nil {
		t.Fatal(err)
	}
	// The first Wait sees every site, site 1 included, decide both; the
	// second covers the scheduled recovery.
	wait()
	c.Inject(CrashAt(c.Now(), 1))                          //nolint:errcheck // never fails
	c.Inject(RecoverAt(c.Now()+sim.Time(sim.DefaultT), 1)) //nolint:errcheck // never fails
	wait()
	third, err := c.Submit(Txn{Master: 2, Payload: put("c")})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	c.Inject(CrashAt(c.Now(), 3)) //nolint:errcheck // never fails
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rs = append(rs, third)
	in := c.Evidence()
	decided := make(map[uint64]string)
	for _, e := range in.Events {
		if e.Kind == trace.Decide && e.Site == 1 {
			decided[e.TID] = e.Outcome
		}
	}
	for _, r := range rs {
		if r.Outcome() != proto.Commit || decided[uint64(r.TID)] != "commit" {
			t.Errorf("txn %d: %v, site 1 traced %q; want commit traced", r.TID, r.Outcome(), decided[uint64(r.TID)])
		}
		if in.Durable[3][uint64(r.TID)] != "commit" {
			t.Errorf("txn %d: killed site 3's log holds %q, want commit", r.TID, in.Durable[3][uint64(r.TID)])
		}
	}
	if _, ok := in.Snapshots[3]; ok || len(in.Snapshots) != 2 {
		t.Errorf("snapshots of sites %v, want 1 and 2: site 3 is down", slices.Sorted(maps.Keys(in.Snapshots)))
	}
	mustVerify(t, c)
}

// TestNetWorkdirReuseStartsFresh: two runs in one workdir, writing
// different keys. Transaction IDs restart at 1, so daemons that kept the
// first run's logs would answer the second run from them; each run starts
// from empty workspaces instead, Verify finds nothing in either, and the
// second holds none of the first run's keys.
func TestNetWorkdirReuseStartsFresh(t *testing.T) {
	dir := t.TempDir()
	for run, keys := range [][]string{{"a", "b", "c", "d"}, {"e", "f", "g", "h"}} {
		batch := parityBatch()
		for i := range batch {
			batch[i].Payload = put(keys[i])
		}
		c, _ := runBatch(t, NewNetBackend(NetOptions{T: netT, Workdir: dir, Seed: 11}), batch)
		if err := c.Close(); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
		for _, v := range c.Verify() {
			t.Errorf("run %d: %v", run+1, v)
		}
		for id, snap := range c.Evidence().Snapshots {
			for key := range snap {
				if !slices.Contains(keys, key) && !engine.IsMetaKey(key) {
					t.Errorf("run %d: site %d holds %q, which only an earlier run wrote", run+1, id, key)
				}
			}
		}
	}
}

// TestNetUnreadableTraceFailsClose: a daemon's trace file that cannot be
// read is an error of Close naming it, not a hole in the evidence.
func TestNetUnreadableTraceFailsClose(t *testing.T) {
	nb := netBackend(t)
	c, _ := runBatch(t, nb, parityBatch()[:1])
	path := filepath.Join(nb.Workdir(), "node-2", "trace.jsonl")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Close = %v, want an error naming %s", err, path)
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
	mustVerify(t, c)
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
	if recs[0].Err != "" {
		t.Fatalf("recovery failed: %+v", recs[0])
	}
	mustVerify(t, c)
	// Whatever the race decided, the recovered coordinator must agree
	// with the slaves, and the committed state must be replicated (or
	// absent) identically everywhere.
	outcome := r.Outcome()
	if outcome == proto.None {
		t.Fatal("no site decided")
	}
	// The slaves may decide after the restart's inquiry step: their answer
	// resolves the coordinator whenever it lands, so the end state is what
	// counts, not the pass's report.
	if slaves := r.Sites[2].Outcome; slaves != outcome || r.Sites[3].Outcome != outcome {
		t.Fatalf("slaves decided %v and %v, want %v", slaves, r.Sites[3].Outcome, outcome)
	}
	if dto, err := nb.net.Client(1).InDoubt(); err != nil || len(dto.InDoubt)+len(dto.Pending) != 0 {
		t.Fatalf("site 1 /indoubt = %+v (%v), want empty", dto, err)
	}
	if dto, err := nb.net.Client(1).Txn(r.TID); err != nil || parseOutcome(dto.Outcome) != outcome {
		t.Fatalf("site 1 holds %q (%v), the slaves %v", dto.Outcome, err, outcome)
	}
	for id, snap := range daemonSnapshots(t, nb) {
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
	if len(recs) != 1 || recs[0].Site != 3 || recs[0].Err != "" {
		t.Fatalf("recoveries = %v, want one clean recovery of site 3", recs)
	}
	t.Logf("recovery: %s", recs[0])
	snaps := daemonSnapshots(t, nb)
	for _, id := range []proto.SiteID{1, 2, 3} {
		if got := string(snaps[int(id)]["missed"]); got != "v" {
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
	mustVerify(t, c)
	if r.Outcome() != proto.Commit {
		return nil, RecoveryReport{}, fmt.Errorf("txn aborted (slow delivery): %v", r.Outcome())
	}
	reps := c.Recoveries()
	if len(reps) != 1 || reps[0].Site != 3 || reps[0].Err != "" {
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
		for id, snap := range daemonSnapshots(t, nb) {
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
		for id, snap := range daemonSnapshots(t, nb) {
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
// transaction unresolved, the key locked and unapplied. At the heal edge
// the daemon asks again over real traffic, and the answer resolves the
// transaction to the survivors' commit without another restart.
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
		if dto, err := nb.net.Client(3).InDoubt(); err != nil || len(dto.InDoubt)+len(dto.Pending) != 0 {
			t.Errorf("site 3 /indoubt after the heal = %+v (%v), want empty", dto, err)
		}
		for id, snap := range daemonSnapshots(t, nb) {
			if got := string(snap["heal"]); got != "v" {
				t.Errorf("site %d: heal = %q, want \"v\" (site 3 by the heal's re-ask)", id, got)
			}
		}
		return nil
	})
}

// The daemons run a protocol by its registry name, so a value that is not
// the registered one under its name — an option the name does not carry —
// is refused before any process starts, and every registered value passes.
func TestNetBackendRefusesUnregisteredProtocols(t *testing.T) {
	for _, p := range []proto.Protocol{
		core.Protocol{ReplyToLateProbes: true},
		core.Protocol{DisableWToC: true},
		core.Protocol{FourPhase: true},
		threepc.Protocol{Modified: true, Rules: threepc.RuleA()},
	} {
		b := netBackend(t)
		c, err := Open(Config{Sites: 3, Protocol: p, Backend: b})
		if err == nil {
			c.Close()
			t.Fatalf("%#v: Open started daemons that run %q", p, p.Name())
		}
		if b.net != nil {
			t.Fatalf("%#v: refused after starting daemons", p)
		}
	}
	for _, name := range registry.Names() {
		p, _ := registry.Lookup(name)
		if err := registered(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
