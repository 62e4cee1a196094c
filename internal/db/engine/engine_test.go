package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

func TestOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpPut, Key: "alice", Value: []byte("hello")},
		{Kind: OpDelete, Key: "bob"},
		{Kind: OpAdd, Key: "carol", Delta: -250},
		{Kind: OpPut, Key: "", Value: nil},
	}
	got, err := DecodeOps(EncodeOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops", len(got))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Key != ops[i].Key ||
			!bytes.Equal(got[i].Value, ops[i].Value) || got[i].Delta != ops[i].Delta {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestDecodeOpsRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {1}, {0, 0, 0, 5}, {0, 0, 0, 1, 9, 0, 0, 0}} {
		if _, err := DecodeOps(raw); err == nil {
			t.Fatalf("garbage %v accepted", raw)
		}
	}
}

func TestOpsRoundTripProperty(t *testing.T) {
	f := func(keys []string, vals [][]byte, deltas []int64) bool {
		var ops []Op
		for i, k := range keys {
			op := Op{Kind: OpKind(i%3 + 1), Key: k, Delta: 1}
			if len(vals) > 0 {
				op.Value = vals[i%len(vals)]
			}
			if len(deltas) > 0 {
				op.Delta = deltas[i%len(deltas)]
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return true
		}
		got, err := DecodeOps(EncodeOps(ops))
		if err != nil || len(got) != len(ops) {
			return false
		}
		for i := range ops {
			w, g := ops[i], got[i]
			if g.Kind != w.Kind || g.Key != w.Key || g.Delta != w.Delta {
				return false
			}
			if len(w.Value) != len(g.Value) || !bytes.Equal(w.Value, g.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if got := DecodeInt(EncodeInt(v)); got != v {
			t.Fatalf("int %d -> %d", v, got)
		}
	}
	if DecodeInt(nil) != 0 || DecodeInt([]byte{1, 2}) != 0 {
		t.Fatal("short values should read as 0")
	}
}

func TestExecuteCommitApplies(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.PutInt("alice", 100)
	payload := EncodeOps([]Op{
		{Kind: OpAdd, Key: "alice", Delta: -30},
		{Kind: OpAdd, Key: "bob", Delta: 30},
	})
	if !e.ExecuteAt(1, payload, nil) {
		t.Fatal("vote no on a valid transfer")
	}
	// Not applied until commit.
	if e.GetInt("alice") != 100 || e.GetInt("bob") != 0 {
		t.Fatal("updates applied before commit")
	}
	if !e.Locked("alice") {
		t.Fatal("prepared txn must hold its locks")
	}
	e.Commit(1)
	if e.GetInt("alice") != 70 || e.GetInt("bob") != 30 {
		t.Fatalf("post-commit: alice=%d bob=%d", e.GetInt("alice"), e.GetInt("bob"))
	}
	if e.Locked("alice") {
		t.Fatal("locks not released after commit")
	}
}

func TestExecuteAbortDiscards(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.PutInt("alice", 100)
	if !e.ExecuteAt(2, EncodeOps([]Op{{Kind: OpAdd, Key: "alice", Delta: -10}}), nil) {
		t.Fatal("vote no")
	}
	e.Abort(2)
	if e.GetInt("alice") != 100 {
		t.Fatal("abort leaked updates")
	}
	if e.Locked("alice") {
		t.Fatal("abort kept locks")
	}
}

func TestInsufficientFundsVotesNo(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.PutInt("alice", 20)
	if e.ExecuteAt(3, EncodeOps([]Op{{Kind: OpAdd, Key: "alice", Delta: -50}}), nil) {
		t.Fatal("overdraft accepted")
	}
	if e.Locked("alice") {
		t.Fatal("failed vote kept locks")
	}
	yes, no, _, _ := e.Stats()
	if yes != 0 || no != 1 {
		t.Fatalf("stats yes=%d no=%d", yes, no)
	}
}

func TestLockConflictVotesNo(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.PutInt("x", 5)
	if !e.ExecuteAt(10, EncodeOps([]Op{{Kind: OpAdd, Key: "x", Delta: 1}}), nil) {
		t.Fatal("txn 10 should prepare")
	}
	// Txn 10 is in doubt (blocked): txn 11 writing x must vote no —
	// the paper's "data inaccessible" condition.
	if e.ExecuteAt(11, EncodeOps([]Op{{Kind: OpPut, Key: "x", Value: EncodeInt(9)}}), nil) {
		t.Fatal("conflicting txn prepared despite held lock")
	}
	if got := e.InDoubt(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("InDoubt = %v", got)
	}
	// Once 10 terminates, 12 can proceed.
	e.Commit(10)
	if !e.ExecuteAt(12, EncodeOps([]Op{{Kind: OpAdd, Key: "x", Delta: 1}}), nil) {
		t.Fatal("txn 12 blocked after release")
	}
	e.Commit(12)
	if e.GetInt("x") != 7 {
		t.Fatalf("x = %d, want 7", e.GetInt("x"))
	}
}

func TestMultiOpSeesOwnWrites(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	payload := EncodeOps([]Op{
		{Kind: OpAdd, Key: "k", Delta: 10},
		{Kind: OpAdd, Key: "k", Delta: -4},
	})
	if !e.ExecuteAt(1, payload, nil) {
		t.Fatal("vote no")
	}
	e.Commit(1)
	if e.GetInt("k") != 6 {
		t.Fatalf("k = %d, want 6", e.GetInt("k"))
	}
}

func TestPutDeleteOps(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.Put("gone", []byte("x"))
	if !e.ExecuteAt(1, EncodeOps([]Op{
		{Kind: OpPut, Key: "name", Value: []byte("huang-li")},
		{Kind: OpDelete, Key: "gone"},
	}), nil) {
		t.Fatal("vote no")
	}
	e.Commit(1)
	if v, _ := e.Get("name"); string(v) != "huang-li" {
		t.Fatal("put missing")
	}
	if _, ok := e.Get("gone"); ok {
		t.Fatal("delete missing")
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestBadPayloadVotesNo(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	if e.ExecuteAt(1, []byte{1, 2, 3}, nil) {
		t.Fatal("garbage payload accepted")
	}
	if e.ExecuteAt(2, EncodeOps(nil), nil) {
		t.Fatal("empty op list accepted")
	}
	// A body in the retired multi-transaction envelope ("TPB\x01", member
	// count, tid, length, member body) is garbage like any other: its
	// magic reads as an op count no payload can back.
	member := EncodeOps([]Op{{Kind: OpPut, Key: "k", Value: []byte("v")}})
	envelope := []byte("TPB\x01")
	envelope = binary.BigEndian.AppendUint32(envelope, 1) // one member
	envelope = binary.BigEndian.AppendUint64(envelope, 9) // its tid
	envelope = binary.BigEndian.AppendUint32(envelope, uint32(len(member)))
	envelope = append(envelope, member...)
	if e.ExecuteAt(3, envelope, nil) {
		t.Fatal("retired batch envelope accepted")
	}
	if e.Locked("k") {
		t.Fatal("rejected envelope left its member's key locked")
	}
	recs, err := e.log.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == wal.RecPrepared {
			t.Fatalf("rejected payload logged a prepare for txn %d", r.TID)
		}
	}
}

// syncFailStore is a log store whose every Sync fails.
type syncFailStore struct{ wal.MemStore }

func (*syncFailStore) Sync() error { return errors.New("sync: disk gone") }

func TestCommitAbortIdempotentAndUnknown(t *testing.T) {
	e := New("s1", &wal.MemStore{})
	e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpAdd, Key: "k", Delta: 5}}), nil)
	e.Commit(1)
	e.Commit(1) // second commit: no-op
	e.Abort(1)  // late abort after commit: no-op (decision already applied)
	if e.GetInt("k") != 5 {
		t.Fatal("idempotence violated")
	}
	e.Commit(99) // unknown txn: no-op
	e.Abort(99)
}

func TestRecoverReplaysCommitted(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s1", store)
	e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: 10}}), nil)
	e.Commit(1)
	e.ExecuteAt(2, EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: 5}}), nil)
	e.Abort(2)
	e.ExecuteAt(3, EncodeOps([]Op{{Kind: OpAdd, Key: "b", Delta: 7}}), nil) // in doubt

	r, inDoubt, err := Recover("s1", store)
	if err != nil {
		t.Fatal(err)
	}
	if r.GetInt("a") != 10 {
		t.Fatalf("recovered a = %d, want 10 (abort discarded)", r.GetInt("a"))
	}
	if r.GetInt("b") != 0 {
		t.Fatal("in-doubt txn applied during recovery")
	}
	if len(inDoubt) != 1 || inDoubt[0] != 3 {
		t.Fatalf("inDoubt = %v", inDoubt)
	}
	if !r.Locked("b") {
		t.Fatal("in-doubt txn must re-hold its locks")
	}
	// The termination protocol later commits it.
	r.Commit(3)
	if r.GetInt("b") != 7 {
		t.Fatal("in-doubt commit after recovery failed")
	}
}

// Recovery is idempotent: recovering from the same log twice, or
// recovering a log that already contains a full history, produces the same
// state (the paper's idempotent-redo argument, §2).
func TestRecoverIdempotent(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s1", store)
	for tid := uint64(1); tid <= 20; tid++ {
		e.ExecuteAt(proto.TxnID(tid), EncodeOps([]Op{
			{Kind: OpAdd, Key: "acct", Delta: int64(tid)},
			{Kind: OpPut, Key: "last", Value: EncodeInt(int64(tid))},
		}), nil)
		if tid%3 == 0 {
			e.Abort(proto.TxnID(tid))
		} else {
			e.Commit(proto.TxnID(tid))
		}
	}
	want := e.GetInt("acct")

	r1, _, err := Recover("s1", store)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Recover("s1", store)
	if err != nil {
		t.Fatal(err)
	}
	if r1.GetInt("acct") != want || r2.GetInt("acct") != want {
		t.Fatalf("recovered %d / %d, want %d", r1.GetInt("acct"), r2.GetInt("acct"), want)
	}
}
