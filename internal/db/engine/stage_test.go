package engine

import (
	"slices"
	"testing"

	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

var (
	stageSites = []proto.SiteID{1, 2, 3}
	stageBody  = EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: 5}, {Kind: OpPut, Key: "b", Value: []byte("v")}})
)

func scan(t *testing.T, e *Engine) []wal.Record {
	t.Helper()
	recs, err := e.log.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// Staging touches the lock table and nothing else: no log record, no
// sync, no counted vote — and Force then writes exactly what ExecuteAt
// would have, in one sync.
func TestStageThenForceIsExecuteAt(t *testing.T) {
	staged, whole := New("staged", &wal.MemStore{}), New("whole", &wal.MemStore{})
	if !staged.StageAt(1, stageBody, stageSites) {
		t.Fatal("stage refused")
	}
	if n := len(scan(t, staged)); n != 0 || staged.WALStats().Syncs != 0 {
		t.Fatalf("staging logged %d records in %d syncs, want none", n, staged.WALStats().Syncs)
	}
	if yes, _, _, _ := staged.Stats(); yes != 0 || !staged.Locked("a") || !staged.Locked("b") {
		t.Fatalf("staged: %d yes votes, locked a=%v b=%v; want 0, true, true", yes, staged.Locked("a"), staged.Locked("b"))
	}
	if !staged.Force(1) || !staged.Force(1) || !whole.ExecuteAt(1, stageBody, stageSites) {
		t.Fatal("force (twice: the second has nothing to do) or ExecuteAt voted no")
	}
	got, want := scan(t, staged), scan(t, whole)
	if len(got) != len(want) || staged.WALStats().Syncs != 1 {
		t.Fatalf("stage+force logged %d records in %d syncs, ExecuteAt %d in 1", len(got), staged.WALStats().Syncs, len(want))
	}
	for i := range got {
		if got[i].Type != want[i].Type || string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("record %d = %+v, ExecuteAt wrote %+v", i, got[i], want[i])
		}
	}
	if yes, _, _, _ := staged.Stats(); yes != 1 {
		t.Fatalf("%d yes votes after the force, want 1", yes)
	}
}

// A transaction decided before it was forced (a single-site roster
// commits inside its own Start) reaches the log as fragment + commit in
// one sync, and a restart replays it as committed.
func TestStagedCommitRecoversFromOneSync(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s1", store)
	if !e.StageAt(1, stageBody, nil) {
		t.Fatal("stage refused")
	}
	e.Commit(1)
	if s := e.WALStats().Syncs; s != 1 {
		t.Fatalf("stage + commit cost %d syncs, want 1", s)
	}
	if !e.Force(1) {
		t.Fatal("force after the decision voted no; it has nothing to do")
	}
	if s := e.WALStats().Syncs; s != 1 || e.Locked("a") {
		t.Fatalf("after commit: %d syncs, a locked=%v; want 1, false", s, e.Locked("a"))
	}
	info, err := e.RecoverInPlace()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 || len(info.InDoubt) != 0 || e.GetInt("a") != 5 {
		t.Fatalf("recovery = %+v, a = %d; want one replayed commit, a = 5", info, e.GetInt("a"))
	}
	if o, ok := e.Outcome(1); !ok || o != proto.Commit {
		t.Fatalf("outcome after restart = %v, %v", o, ok)
	}
}

// An abort drops a staged fragment: the log learns the decision and never
// the transaction, and the keys are free.
func TestStagedAbortLeavesNoBegin(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	if !e.StageAt(1, stageBody, stageSites) {
		t.Fatal("stage refused")
	}
	e.Abort(1)
	for _, r := range scan(t, e) {
		if r.Type != wal.RecAbort {
			t.Fatalf("aborted staged txn logged a %s record", r.Type)
		}
	}
	if e.Locked("a") || e.Locked("b") || len(e.InDoubt()) != 0 {
		t.Fatalf("after abort: locked a=%v b=%v, in doubt %v", e.Locked("a"), e.Locked("b"), e.InDoubt())
	}
	if info, err := e.RecoverInPlace(); err != nil || len(info.InDoubt) != 0 || e.GetInt("a") != 0 {
		t.Fatalf("recovery = %+v, %v; a = %d", info, err, e.GetInt("a"))
	}
}

// Locks are taken at stage time: a conflicting transaction votes no
// against a fragment that is not durable yet, in either order, so a hot
// key still aborts at the master without reaching a slave.
func TestStagedLocksConflict(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	if !e.StageAt(1, stageBody, stageSites) {
		t.Fatal("stage refused")
	}
	if e.ExecuteAt(2, EncodeOps([]Op{{Kind: OpPut, Key: "a", Value: []byte("w")}}), stageSites) {
		t.Fatal("ExecuteAt voted yes on a key a staged transaction holds")
	}
	if e.StageAt(3, EncodeOps([]Op{{Kind: OpPut, Key: "b", Value: []byte("w")}}), stageSites) {
		t.Fatal("StageAt succeeded on a key a staged transaction holds")
	}
	if !e.Force(1) {
		t.Fatal("the holder's force voted no")
	}
	if _, no, _, _ := e.Stats(); no != 2 {
		t.Fatalf("%d no votes, want 2", no)
	}
}

// A force that did not become durable is a no vote: keys released, the
// transaction aborted here, nothing left pending.
func TestForceSyncFailureVotesNo(t *testing.T) {
	e := New("s1", &syncFailStore{})
	if !e.StageAt(1, stageBody, stageSites) {
		t.Fatal("stage refused")
	}
	if e.Force(1) {
		t.Fatal("force reported a yes over a failed sync")
	}
	if o, ok := e.Outcome(1); !ok || o != proto.Abort {
		t.Fatalf("outcome = %v, %v; want abort", o, ok)
	}
	if e.Locked("a") || e.Locked("b") || len(e.InDoubt()) != 0 {
		t.Fatalf("after failed force: locked a=%v b=%v, in doubt %v", e.Locked("a"), e.Locked("b"), e.InDoubt())
	}
	if yes, no, _, _ := e.Stats(); yes != 0 || no != 1 {
		t.Fatalf("votes yes=%d no=%d, want 0 and 1", yes, no)
	}
}

// The wound rule is asked about the holder of a conflicting key, and only
// then. On yes the holder is aborted durably — abort record, cached
// decision, locks released — and the asker takes the key; on no the
// conflict is a no vote and the holder keeps everything.
func TestStageWoundsHolder(t *testing.T) {
	for _, allow := range []bool{false, true} {
		e := New("s", &wal.MemStore{})
		var asked [][2]uint64
		e.SetWound(func(holder, tid uint64) bool {
			asked = append(asked, [2]uint64{holder, tid})
			return allow
		})
		if !e.ExecuteAt(2, stageBody, stageSites) || !e.StageAt(3, EncodeOps([]Op{{Kind: OpPut, Key: "c"}}), stageSites) {
			t.Fatal("uncontended txns voted no")
		}
		if len(asked) != 0 {
			t.Fatalf("wound rule asked %v without a conflict", asked)
		}
		got := e.StageAt(1, stageBody, stageSites)
		if want := [][2]uint64{{2, 1}}; got != allow || len(asked) != 1 || asked[0] != want[0] {
			t.Fatalf("allow=%v: stage = %v, rule asked %v; want %v once", allow, got, asked, want)
		}
		o, decided := e.Outcome(2)
		if !allow {
			if decided || len(e.InDoubt()) != 2 {
				t.Fatalf("refused wound: holder decided=%v, pending %v", decided, e.InDoubt())
			}
			continue
		}
		if !decided || o != proto.Abort || !e.Force(1) {
			t.Fatalf("wounded holder reads %v/%v, or the winner's force failed", o, decided)
		}
		info, err := e.RecoverInPlace()
		if err != nil {
			t.Fatal(err)
		}
		if o, _ := e.Outcome(2); o != proto.Abort || len(info.InDoubt) != 1 || info.InDoubt[0].TID != 1 {
			t.Fatalf("after restart: holder %v, in doubt %+v; want aborted, and txn 1 prepared", o, info.InDoubt)
		}
	}
}

// Blocker names the holders that keep StageAt from the first key it
// would lock, reads the same keys StageAt does — not a foreign key, not a
// bare epoch marker, not the asker's own — and takes nothing. On an
// add-mode key it names only the pending debtors the escrow guard would
// refuse the body for.
func TestBlocker(t *testing.T) {
	e := New("site", &wal.MemStore{})
	e.SetPlacement(func(key string) bool { return key != "foreign" })
	for tid, key := range map[proto.TxnID]string{1: "a", 2: "b", 3: "foreign"} {
		e.locks.TryAcquire(uint64(tid), key, 0)
	}
	// acct holds 10, of which txns 4 and 5 have reserved 3 each; txn 6
	// has a credit of 50 pending there.
	e.PutInt("acct", 10)
	add := func(delta int64) []byte { return EncodeOps([]Op{{Kind: OpAdd, Key: "acct", Delta: delta}}) }
	for tid, delta := range map[proto.TxnID]int64{6: 50, 5: -3, 4: -3} {
		if !e.ExecuteAt(tid, add(delta), stageSites) {
			t.Fatalf("txn %d voted no", tid)
		}
	}
	body := func(keys ...string) []byte {
		ops := []Op{{Kind: OpEpoch}} // a bare marker: no lock
		for _, k := range keys {
			ops = append(ops, Op{Kind: OpPut, Key: k, Value: []byte("v")})
		}
		return EncodeOps(ops)
	}
	cases := []struct {
		tid     proto.TxnID
		body    []byte
		holders []uint64
	}{
		{9, body("free", "b", "a"), []uint64{2}},
		{9, body("foreign", "free"), nil},
		{1, body("a"), nil},
		{1, body("a", "b"), []uint64{2}},
		{9, []byte("not ops"), nil},
		{9, add(-4), nil},                    // 10 - 6 covers 4
		{9, add(-5), []uint64{4, 5}},         // short only because of 4 and 5
		{9, add(-11), nil},                   // short against 10: a no vote, not a wait
		{9, add(+7), nil},                    // a credit never waits for adders
		{4, add(-8), []uint64{5}},            // the asker's own reservation is not a conflict
		{9, body("acct"), []uint64{4, 5, 6}}, // a write conflicts with every adder
	}
	for i, c := range cases {
		if h := e.Blocker(c.tid, c.body); !slices.Equal(h, c.holders) {
			t.Errorf("case %d: Blocker = %v, want %v", i, h, c.holders)
		}
	}
	if e.Locked("free") || len(e.InDoubt()) != 3 {
		t.Fatal("Blocker took a lock or staged a transaction")
	}
}
