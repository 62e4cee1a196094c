package engine

import (
	"errors"
	"testing"

	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

// A checkpointed log replays to exactly the state the full history would
// have: committed keys, durable decisions, and in-doubt transactions with
// their rosters all survive the compaction — and the log is shorter.
func TestCheckpointCompactsAndRecovers(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s", store)
	e.PutInt("acct/1", 100)
	e.PutInt("acct/2", 100)

	if !e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/1", Delta: -10}}), []proto.SiteID{1, 2}) {
		t.Fatal("txn 1 voted no")
	}
	e.Commit(1)
	if !e.ExecuteAt(2, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/2", Delta: -10}}), []proto.SiteID{1, 3}) {
		t.Fatal("txn 2 voted no")
	}
	e.Abort(2)
	// Txn 3 stays in doubt across the checkpoint.
	if !e.ExecuteAt(3, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/1", Delta: -5}}), []proto.SiteID{1, 2, 3}) {
		t.Fatal("txn 3 voted no")
	}

	before, err := e.log.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := e.log.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("checkpoint did not shrink log: %d -> %d records", len(before), len(after))
	}
	if after[0].Type != wal.RecCheckpoint {
		t.Fatalf("first record after checkpoint = %v", after[0].Type)
	}

	// Restart after the checkpoint: the compacted log must rebuild
	// everything.
	info, err := e.RecoverInPlace()
	if err != nil {
		t.Fatal(err)
	}
	got := e.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("keys after restart = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || string(gv) != string(v) {
			t.Fatalf("key %q after restart = %q/%v, want %q", k, gv, ok, v)
		}
	}
	if o, ok := e.Outcome(1); !ok || o != proto.Commit {
		t.Fatalf("Outcome(1) after restart = %v/%v", o, ok)
	}
	if o, ok := e.Outcome(2); !ok || o != proto.Abort {
		t.Fatalf("Outcome(2) after restart = %v/%v", o, ok)
	}
	if len(info.InDoubt) != 1 || info.InDoubt[0].TID != 3 {
		t.Fatalf("in-doubt after restart = %+v", info.InDoubt)
	}
	if len(info.InDoubt[0].Sites) != 3 {
		t.Fatalf("roster lost across checkpoint: %v", info.InDoubt[0].Sites)
	}
	// The revived in-doubt transaction still decides normally.
	e.Commit(3)
	if e.GetInt("acct/1") != 85 {
		t.Fatalf("acct/1 = %d after committing revived txn", e.GetInt("acct/1"))
	}
}

// Repeated checkpoint/restart cycles keep the log bounded instead of
// replaying an ever-growing history.
func TestCheckpointBoundsLogAcrossRestarts(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s", store)
	e.PutInt("k", 0)
	var sizes []int
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 10; i++ {
			tid := proto.TxnID(cycle*10 + i + 1)
			if !e.ExecuteAt(tid, EncodeOps([]Op{{Kind: OpAdd, Key: "k", Delta: 1}}), nil) {
				t.Fatalf("cycle %d txn %d voted no", cycle, tid)
			}
			e.Commit(tid)
		}
		if _, err := e.RecoverInPlace(); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint cycle %d: %v", cycle, err)
		}
		recs, err := e.log.ScanStore()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(recs))
	}
	if e.GetInt("k") != 50 {
		t.Fatalf("k = %d after 5 cycles", e.GetInt("k"))
	}
	// Decision records accumulate (they stay answerable to peers), but the
	// per-txn begin/update/prepared fragments must not: each cycle adds 10
	// decisions, so consecutive checkpoints differ by exactly those.
	for i := 1; i < len(sizes); i++ {
		if sizes[i]-sizes[i-1] > 10 {
			t.Fatalf("log growth per cycle = %d records (sizes %v)", sizes[i]-sizes[i-1], sizes)
		}
	}
}

// fullDisk is a log store whose data writes fail once the disk fills; a
// Replace with nothing to write still succeeds.
type fullDisk struct {
	wal.MemStore
	full bool
}

var errDiskFull = errors.New("write: no space left on device")

func (s *fullDisk) Write(p []byte) (int, error) {
	if s.full {
		return 0, errDiskFull
	}
	return s.MemStore.Write(p)
}

func (s *fullDisk) Replace(p []byte) error {
	if s.full && len(p) > 0 {
		return errDiskFull
	}
	return s.MemStore.Replace(p)
}

// A checkpoint whose write fails reports it and leaves the log it meant to
// replace: a recovery from what the store holds still has every committed
// key, every durable decision and the prepared vote of the in-doubt
// transaction. (Truncating first and appending after would leave nothing.)
func TestCheckpointWriteFailureKeepsLog(t *testing.T) {
	store := &fullDisk{}
	e := New("s", store)
	if !e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/1", Delta: 100}}), []proto.SiteID{1, 2}) {
		t.Fatal("txn 1 voted no")
	}
	e.Commit(1)
	if !e.ExecuteAt(2, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/2", Delta: 50}}), []proto.SiteID{1, 2}) {
		t.Fatal("txn 2 voted no")
	}

	store.full = true
	if err := e.Checkpoint(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Checkpoint on a full disk = %v, want %v", err, errDiskFull)
	}

	raw, err := store.Contents()
	if err != nil {
		t.Fatal(err)
	}
	r, inDoubt, err := Recover("s", replayOf(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.GetInt("acct/1"); got != 100 {
		t.Fatalf("acct/1 after recovery = %d, want 100", got)
	}
	if o, ok := r.Outcome(1); !ok || o != proto.Commit {
		t.Fatalf("Outcome(1) after recovery = %v/%v, want commit", o, ok)
	}
	if len(inDoubt) != 1 || inDoubt[0] != 2 || !r.Locked("acct/2") {
		t.Fatalf("in doubt after recovery = %v (acct/2 locked %v), want txn 2 prepared", inDoubt, r.Locked("acct/2"))
	}
}

// replayOf is a fresh store holding raw as its stable contents.
func replayOf(t *testing.T, raw []byte) *wal.MemStore {
	t.Helper()
	s := &wal.MemStore{}
	if err := s.Replace(raw); err != nil {
		t.Fatal(err)
	}
	return s
}
