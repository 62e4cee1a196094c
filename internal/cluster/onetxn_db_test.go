package cluster_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
	"termproto/internal/protocol/twopc"
)

// engines builds one database engine per site with an initial balance of
// `initial` under key "acct" at every site (fully replicated row).
func engines(n int, initial int64) map[proto.SiteID]*engine.Engine {
	out := make(map[proto.SiteID]*engine.Engine, n)
	for i := 1; i <= n; i++ {
		e := engine.New("site", &wal.MemStore{})
		e.PutInt("acct", initial)
		out[proto.SiteID(i)] = e
	}
	return out
}

func transfer(amount int64) []byte {
	return engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "acct", Delta: amount}})
}

func TestDBCommitAppliesEverywhere(t *testing.T) {
	engs := engines(4, 100)
	r, _ := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{}, Engines: engs},
		cluster.SimOptions{}, cluster.Txn{Payload: transfer(-25)})
	if !r.Consistent() {
		t.Fatal("inconsistent")
	}
	for id, e := range engs {
		if got := e.GetInt("acct"); got != 75 {
			t.Fatalf("site %d acct = %d, want 75", id, got)
		}
		if e.Locked("acct") {
			t.Fatalf("site %d still holds locks", id)
		}
	}
}

// A payload-less transaction has no database ops: an engine site votes
// yes without executing anything, on the simulator as on the daemons, so
// it commits everywhere. Each engine still logs the decision, which a
// recovery inquiry is answered from.
func TestDBEmptyPayloadVotesYes(t *testing.T) {
	engs := engines(3, 100)
	r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: core.Protocol{}, Engines: engs},
		cluster.SimOptions{}, cluster.Txn{})
	for id, s := range r.Sites {
		if s.Outcome != proto.Commit {
			t.Fatalf("site %d outcome = %v, want commit", id, s.Outcome)
		}
	}
	for id, e := range engs {
		if yes, no, commits, aborts := e.Stats(); yes+no+commits+aborts != 0 {
			t.Fatalf("site %d engine touched: votes %d/%d, decisions %d/%d", id, yes, no, commits, aborts)
		}
		if o, ok := e.Outcome(uint64(r.TID)); !ok || o != proto.Commit {
			t.Fatalf("site %d durable outcome = %v (%v), want commit", id, o, ok)
		}
		if got := e.GetInt("acct"); got != 100 {
			t.Fatalf("site %d acct = %d, want untouched 100", id, got)
		}
	}
}

// A nil entry in Config.Engines is a site without a database on every
// path: the cluster's Voter decides its vote, here a no that aborts the
// transfer at the engine sites.
func TestDBNilEngineVotesByVoter(t *testing.T) {
	engs := engines(3, 100)
	engs[3] = nil
	r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: core.Protocol{}, Engines: engs, Votes: cluster.NoAt(3)},
		cluster.SimOptions{}, cluster.Txn{Payload: transfer(-25)})
	if !r.Consistent() || r.Sites[1].Outcome != proto.Abort {
		t.Fatalf("consistent=%v outcome=%v, want abort everywhere", r.Consistent(), r.Sites[1].Outcome)
	}
	for _, id := range []proto.SiteID{1, 2} {
		if got := engs[id].GetInt("acct"); got != 100 || engs[id].Locked("acct") {
			t.Fatalf("site %d acct = %d (locked %v), want untouched 100", id, got, engs[id].Locked("acct"))
		}
	}
}

func TestDBGuardVoteNoAbortsEverywhere(t *testing.T) {
	engs := engines(3, 10)
	// Make site 3 unable to cover the debit: its vote no must abort all.
	engs[3].PutInt("acct", 1)
	r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: core.Protocol{}, Engines: engs},
		cluster.SimOptions{}, cluster.Txn{Payload: transfer(-5)})
	if !r.Consistent() {
		t.Fatal("inconsistent")
	}
	if r.Sites[1].Outcome != proto.Abort {
		t.Fatalf("outcome = %v, want abort", r.Sites[1].Outcome)
	}
	if got := engs[1].GetInt("acct"); got != 10 {
		t.Fatalf("site 1 acct = %d, want untouched 10", got)
	}
}

// The paper's §2 motivation, end to end: under 2PC a partition leaves the
// separated slave's row LOCKED indefinitely, so a later transaction on it
// fails; under the termination protocol the first transaction terminates,
// locks are freed, and the later transaction succeeds.
func TestDBLockBlockingMotivation(t *testing.T) {
	onset := 2*Tt + 1 // after votes, before commits: commit_3 bounces
	part := partitionAt(onset, 3)

	// --- 2PC: site 3 wedges in w holding the row lock ---
	engs2pc := engines(3, 100)
	r1, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{}, Engines: engs2pc, Schedule: part,
	}, cluster.SimOptions{}, cluster.Txn{ID: 1, Payload: transfer(-10)})
	if len(r1.Blocked()) != 1 || r1.Blocked()[0] != 3 {
		t.Fatalf("2pc blocked = %v, want [3]", r1.Blocked())
	}
	site3 := engs2pc[3]
	if !site3.Locked("acct") {
		t.Fatal("blocked 2PC slave must hold the row lock (paper §2)")
	}
	// A later transaction at site 3 that needs what the blocked debit
	// holds — its reservation of 10 out of 100 — votes no.
	if site3.ExecuteAt(2, transfer(-95), nil) {
		t.Fatal("second txn acquired a lock held by the blocked txn")
	}

	// --- termination protocol: everything terminates, locks freed ---
	engsTerm := engines(3, 100)
	r2, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: core.Protocol{}, Engines: engsTerm, Schedule: part,
	}, cluster.SimOptions{}, cluster.Txn{ID: 1, Payload: transfer(-10)})
	if !r2.Consistent() || len(r2.Blocked()) != 0 {
		t.Fatalf("termination: consistent=%v blocked=%v", r2.Consistent(), r2.Blocked())
	}
	for id, e := range engsTerm {
		if e.Locked("acct") {
			t.Fatalf("site %d holds locks after termination", id)
		}
		// The commit crossed B before the partition? commit_3 bounced, so
		// the G2-commit law decides; either way all sites agree.
		if got, want := e.GetInt("acct"), int64(100); r2.Sites[1].Outcome == proto.Commit {
			want = 90
			if got != want {
				t.Fatalf("site %d acct = %d, want %d", id, got, want)
			}
		} else if got != want {
			t.Fatalf("site %d acct = %d, want %d", id, got, want)
		}
	}
	// And a follow-up transaction now succeeds everywhere.
	r3, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: core.Protocol{}, Engines: engsTerm},
		cluster.SimOptions{}, cluster.Txn{ID: 2, Payload: transfer(-7)})
	if r3.Sites[1].Outcome != proto.Commit {
		t.Fatalf("follow-up txn = %v, want commit", r3.Sites[1].Outcome)
	}
}

// Sequential transfers across partitions conserve the replicated balance
// at every site that applied the same decision sequence.
func TestDBSequentialTransfersStayReplicated(t *testing.T) {
	engs := engines(5, 1000)
	tid := proto.TxnID(1)
	for _, step := range []struct {
		amount int64
		g2     []proto.SiteID
	}{
		{-100, nil},
		{+50, []proto.SiteID{4, 5}},
		{-200, []proto.SiteID{2}},
		{+25, nil},
		{-1, []proto.SiteID{2, 3, 4}},
	} {
		cfg := cluster.Config{Sites: 5, Protocol: core.Protocol{}, Engines: engs}
		if step.g2 != nil {
			cfg.Schedule = partitionAt(2*Tt+500, step.g2...)
		}
		r, _ := cluster.RunOne(cfg, cluster.SimOptions{}, cluster.Txn{ID: tid, Payload: transfer(step.amount)})
		if !r.Consistent() || len(r.Blocked()) != 0 {
			t.Fatalf("tid %d: consistent=%v blocked=%v", tid, r.Consistent(), r.Blocked())
		}
		tid++
	}
	// Every site must hold the same final balance (all saw identical
	// decisions, by atomicity).
	want := engs[1].GetInt("acct")
	for id, e := range engs {
		if got := e.GetInt("acct"); got != want {
			t.Fatalf("site %d acct = %d, others %d — replication diverged", id, got, want)
		}
	}
}

// Crash-recovery integration: a site that crashes while a transaction is
// in doubt recovers from its WAL with the transaction still pending and
// its locks re-held (§2's stable-storage discipline), and the decision —
// once learned — applies idempotently.
func TestDBCrashRecoveryOfInDoubtTxn(t *testing.T) {
	stores := map[proto.SiteID]*wal.MemStore{}
	engs := map[proto.SiteID]*engine.Engine{}
	for i := proto.SiteID(1); i <= 3; i++ {
		st := &wal.MemStore{}
		stores[i] = st
		e := engine.New("site", st)
		e.PutInt("acct", 100)
		engs[i] = e
	}

	// 2PC with commit_3 bounced: site 3 is left in doubt.
	r, _ := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: twopc.Protocol{}, Engines: engs, Schedule: partitionAt(2*Tt+1, 3),
	}, cluster.SimOptions{}, cluster.Txn{ID: 9, Payload: transfer(-40)})
	if r.Sites[1].Outcome != proto.Commit {
		t.Fatalf("master = %v, want commit", r.Sites[1].Outcome)
	}
	if got := r.Sites[3].Outcome; got != proto.None {
		t.Fatalf("site 3 = %v, want in doubt", got)
	}

	// Site 3 "crashes" and restarts from its stable log. The fixture rows
	// were loaded outside any transaction, so only the committed history
	// replays; the in-doubt transfer must surface with its locks held.
	rec, inDoubt, err := engine.Recover("site3-restarted", stores[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 1 || inDoubt[0] != 9 {
		t.Fatalf("inDoubt = %v, want [9]", inDoubt)
	}
	if !rec.Locked("acct") {
		t.Fatal("recovered in-doubt txn must re-hold its lock")
	}
	// A local transaction that needs the in-doubt debit's reservation (40
	// out of 100) is still refused — blocking survives restarts, exactly
	// the paper's point.
	if rec.ExecuteAt(10, transfer(-61), nil) {
		t.Fatal("conflicting txn prepared against a recovered in-doubt lock")
	}

	// The termination decision (here: the master committed) finally
	// arrives; applying it twice is harmless.
	rec.Commit(9)
	rec.Commit(9)
	if got := rec.GetInt("acct"); got != 60 {
		t.Fatalf("recovered acct = %d, want 60", got)
	}
	if rec.Locked("acct") {
		t.Fatal("locks survive the decision")
	}
}
