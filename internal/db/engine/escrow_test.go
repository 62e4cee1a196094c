package engine

import (
	"slices"
	"testing"

	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/proto"
)

// addBody is a one-op body adding delta to key.
func addBody(key string, delta int64) []byte {
	return EncodeOps([]Op{{Kind: OpAdd, Key: key, Delta: delta}})
}

// escrowEngine is an engine with metrics on and acct at balance.
func escrowEngine(t *testing.T, balance int64) (*Engine, *obs.Registry, *wal.MemStore) {
	t.Helper()
	store := &wal.MemStore{}
	e := New("s", store)
	reg := obs.New()
	e.SetMetrics(reg, nil)
	e.PutInt("acct", balance)
	return e, reg, store
}

// Two debits on one key prepare side by side, each logged as its delta,
// and commit in either order to the same value.
func TestEscrowDebitsPrepareTogether(t *testing.T) {
	for _, order := range [][2]proto.TxnID{{1, 2}, {2, 1}} {
		e, reg, _ := escrowEngine(t, 100)
		if !e.ExecuteAt(1, addBody("acct", -30), stageSites) || !e.ExecuteAt(2, addBody("acct", -70), stageSites) {
			t.Fatal("two debits the balance covers did not both prepare")
		}
		adds := 0
		for _, r := range scan(t, e) {
			if r.Type == wal.RecUpdate {
				t.Fatalf("an add logged an after-image: %+v", r)
			}
			if r.Type == wal.RecAdd {
				adds++
			}
		}
		if adds != 2 {
			t.Fatalf("%d add records logged, want 2", adds)
		}
		e.Commit(order[0])
		if got := e.GetInt("acct"); got != 100+map[proto.TxnID]int64{1: -30, 2: -70}[order[0]] {
			t.Fatalf("order %v: acct = %d after the first commit", order, got)
		}
		e.Commit(order[1])
		if got := e.GetInt("acct"); got != 0 || e.Locked("acct") {
			t.Fatalf("order %v: acct = %d (locked %v), want 0 and free", order, got, e.Locked("acct"))
		}
		if got := reg.Snapshot().Total(obs.MLockFailures); got != 0 {
			t.Fatalf("%s = %d, want 0: adds do not conflict", obs.MLockFailures, got)
		}
	}
}

// A debit the committed value covers but a pending debit's reservation
// does not is a conflict with that debtor: Blocker names it, the engine
// counts a lock failure and votes no, and once the debtor aborts the
// debit goes through.
func TestEscrowPendingDebitBlocks(t *testing.T) {
	e, reg, _ := escrowEngine(t, 100)
	if !e.ExecuteAt(1, addBody("acct", -60), stageSites) {
		t.Fatal("txn 1 voted no")
	}
	if h := e.Blocker(2, addBody("acct", -50)); !slices.Equal(h, []uint64{1}) {
		t.Fatalf("Blocker = %v, want [1]", h)
	}
	if e.ExecuteAt(2, addBody("acct", -50), stageSites) {
		t.Fatal("a debit spent txn 1's reservation")
	}
	if got := reg.Snapshot().Total(obs.MLockFailures); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MLockFailures, got)
	}
	e.Abort(1)
	if h := e.Blocker(3, addBody("acct", -50)); h != nil {
		t.Fatalf("Blocker = %v once the debtor aborted, want none", h)
	}
	if !e.ExecuteAt(3, addBody("acct", -50), stageSites) {
		t.Fatal("the debit voted no once the debtor aborted")
	}
	e.Commit(3)
	if got := e.GetInt("acct"); got != 50 {
		t.Fatalf("acct = %d, want 50", got)
	}
}

// A debit the committed value alone cannot cover is today's insufficient
// funds no: no holder is named and no lock failure counted.
func TestEscrowShortAgainstCommittedVotesNo(t *testing.T) {
	e, reg, _ := escrowEngine(t, 100)
	if !e.ExecuteAt(1, addBody("acct", -10), stageSites) {
		t.Fatal("txn 1 voted no")
	}
	if h := e.Blocker(2, addBody("acct", -101)); h != nil {
		t.Fatalf("Blocker = %v, want none: waiting cannot help", h)
	}
	if e.ExecuteAt(2, addBody("acct", -101), stageSites) {
		t.Fatal("a debit beyond the committed value prepared")
	}
	if o, ok := e.Outcome(2); !ok || o != proto.Abort {
		t.Fatalf("outcome = %v/%v, want abort", o, ok)
	}
	if got := reg.Snapshot().Total(obs.MLockFailures); got != 0 {
		t.Fatalf("%s = %d, want 0", obs.MLockFailures, got)
	}
}

// A credit still pending is not money yet: a debit that only it would
// cover votes no, and goes through once the credit has committed.
func TestEscrowPendingCreditCannotBeSpent(t *testing.T) {
	e, _, _ := escrowEngine(t, 10)
	if !e.ExecuteAt(1, addBody("acct", +90), stageSites) {
		t.Fatal("a credit voted no")
	}
	if e.ExecuteAt(2, addBody("acct", -50), stageSites) {
		t.Fatal("a debit spent a pending credit")
	}
	e.Commit(1)
	if !e.ExecuteAt(3, addBody("acct", -50), stageSites) {
		t.Fatal("the debit voted no once the credit committed")
	}
	e.Commit(3)
	if got := e.GetInt("acct"); got != 50 {
		t.Fatalf("acct = %d, want 50", got)
	}
}

// A body's own earlier adds count toward its guard on the key, and the
// body reserves its net debit there.
func TestEscrowBodyRunningSum(t *testing.T) {
	e, _, _ := escrowEngine(t, 10)
	body := EncodeOps([]Op{
		{Kind: OpAdd, Key: "acct", Delta: -10},
		{Kind: OpAdd, Key: "acct", Delta: +5},
		{Kind: OpAdd, Key: "acct", Delta: -6},
	})
	if e.ExecuteAt(1, body, stageSites) {
		t.Fatal("a body whose running sum overdraws prepared")
	}
	body = EncodeOps([]Op{{Kind: OpAdd, Key: "acct", Delta: -10}, {Kind: OpAdd, Key: "acct", Delta: +4}})
	if !e.ExecuteAt(2, body, stageSites) {
		t.Fatal("a body the balance covers voted no")
	}
	if e.ExecuteAt(3, addBody("acct", -5), stageSites) || !e.ExecuteAt(4, addBody("acct", -4), stageSites) {
		t.Fatal("txn 2 did not reserve exactly its net debit of 6")
	}
	e.Commit(2)
	e.Commit(4)
	if got := e.GetInt("acct"); got != 0 {
		t.Fatalf("acct = %d, want 0", got)
	}
}

// Two in-doubt adds on one key come back from a restart — plain, and
// after a checkpoint — in add mode with both reservations; committing one
// and aborting the other leaves the right value.
func TestEscrowInDoubtAddsSurviveRecovery(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		e, _, _ := escrowEngine(t, 100)
		if !e.ExecuteAt(1, addBody("acct", -40), stageSites) || !e.ExecuteAt(2, addBody("acct", -50), stageSites) {
			t.Fatal("two covered debits did not both prepare")
		}
		if checkpoint {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			adds := 0
			for _, r := range scan(t, e) {
				if r.Type == wal.RecAdd {
					adds++
				}
			}
			if adds != 2 {
				t.Fatalf("checkpoint logged %d add records, want 2", adds)
			}
		}
		info, err := e.RecoverInPlace()
		if err != nil {
			t.Fatal(err)
		}
		if len(info.InDoubt) != 2 || e.GetInt("acct") != 100 {
			t.Fatalf("checkpoint=%v: in doubt %+v, acct %d; want txns 1 and 2 over 100", checkpoint, info.InDoubt, e.GetInt("acct"))
		}
		if h := e.Blocker(3, addBody("acct", -11)); !slices.Equal(h, []uint64{1, 2}) {
			t.Fatalf("checkpoint=%v: Blocker = %v, want both reservations [1 2]", checkpoint, h)
		}
		if !e.ExecuteAt(3, addBody("acct", -10), stageSites) {
			t.Fatalf("checkpoint=%v: an add beside the recovered adds voted no", checkpoint)
		}
		e.Abort(3)
		e.Commit(2)
		e.Abort(1)
		if got := e.GetInt("acct"); got != 50 || e.Locked("acct") {
			t.Fatalf("checkpoint=%v: acct = %d (locked %v), want 50 and free", checkpoint, got, e.Locked("acct"))
		}
		if _, err := e.RecoverInPlace(); err != nil || e.GetInt("acct") != 50 {
			t.Fatalf("checkpoint=%v: replay reads acct %d (%v), want 50", checkpoint, e.GetInt("acct"), err)
		}
	}
}

// An escrow conflict is resolved by the wound rule like a lock conflict:
// the rule is asked about each debtor, and the debit goes through once
// every one it is short by is aborted.
func TestEscrowWoundsEveryDebtor(t *testing.T) {
	for _, allow := range []bool{false, true} {
		e, _, _ := escrowEngine(t, 100)
		var asked []uint64
		e.SetWound(func(holder, tid uint64) bool {
			asked = append(asked, holder)
			return allow
		})
		if !e.ExecuteAt(2, addBody("acct", -40), stageSites) || !e.ExecuteAt(3, addBody("acct", -40), stageSites) ||
			!e.ExecuteAt(4, addBody("acct", +500), stageSites) {
			t.Fatal("covered adds voted no")
		}
		got := e.ExecuteAt(1, addBody("acct", -30), stageSites)
		if got != allow || !slices.Equal(asked, []uint64{2, 3}) {
			t.Fatalf("allow=%v: vote %v, rule asked %v; want the two debtors", allow, got, asked)
		}
		for _, debtor := range []uint64{2, 3} {
			if o, decided := e.Outcome(debtor); decided != allow || (allow && o != proto.Abort) {
				t.Fatalf("allow=%v: debtor %d reads %v/%v", allow, debtor, o, decided)
			}
		}
		if _, decided := e.Outcome(4); decided {
			t.Fatal("the pending credit was wounded")
		}
	}
}
