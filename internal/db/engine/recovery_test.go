package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/proto"
)

func TestOutcomeTracksDecisions(t *testing.T) {
	e := New("s", &wal.MemStore{})
	e.PutInt("a", 100)
	e.PutInt("b", 100)
	if _, ok := e.Outcome(1); ok {
		t.Fatal("outcome known before any decision")
	}
	if !e.Execute(1, EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: -1}})) {
		t.Fatal("vote no")
	}
	if _, ok := e.Outcome(1); ok {
		t.Fatal("outcome known while prepared")
	}
	e.Commit(1)
	if o, ok := e.Outcome(1); !ok || o != proto.Commit {
		t.Fatalf("Outcome(1) = %v/%v", o, ok)
	}
	// A vote-no is a durable local abort decision.
	if e.Execute(2, EncodeOps([]Op{{Kind: OpAdd, Key: "b", Delta: -1000}})) {
		t.Fatal("guard should vote no")
	}
	if o, ok := e.Outcome(2); !ok || o != proto.Abort {
		t.Fatalf("Outcome(2) = %v/%v", o, ok)
	}
	// The decision cache survives a restart: it is log-derived.
	if _, err := e.RecoverInPlace(); err != nil {
		t.Fatal(err)
	}
	if o, ok := e.Outcome(1); !ok || o != proto.Commit {
		t.Fatalf("Outcome(1) after restart = %v/%v", o, ok)
	}
	if o, ok := e.Outcome(2); !ok || o != proto.Abort {
		t.Fatalf("Outcome(2) after restart = %v/%v", o, ok)
	}
}

// RecoverInPlace is a genuine restart: state that never reached the log
// dies with the process image, and logged state is rebuilt exactly.
func TestRecoverInPlaceDropsUnloggedState(t *testing.T) {
	store := &wal.MemStore{}
	e := New("s", store)
	e.PutInt("durable", 7) // logged as RecApply
	if !e.Execute(1, EncodeOps([]Op{{Kind: OpPut, Key: "row", Value: []byte("v1")}})) {
		t.Fatal("vote no")
	}
	e.Commit(1)

	info, err := e.RecoverInPlace()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 || len(info.InDoubt) != 0 {
		t.Fatalf("info = %+v", info)
	}
	if e.GetInt("durable") != 7 {
		t.Fatal("fixture lost across restart")
	}
	if v, ok := e.Get("row"); !ok || string(v) != "v1" {
		t.Fatalf("committed row after restart = %q/%v", v, ok)
	}

	// Model a crash that loses unsynced bytes: state rebuilt from the
	// synced prefix only (everything, since Append syncs each record).
	if e.Len() != 2 {
		t.Fatalf("len = %d", e.Len())
	}
}

func TestExecuteAtRosterRoundTrip(t *testing.T) {
	e := New("s", &wal.MemStore{})
	e.PutInt("a", 100)
	roster := []proto.SiteID{2, 3, 5}
	if !e.ExecuteAt(9, EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: -5}}), roster) {
		t.Fatal("vote no")
	}
	info, err := e.RecoverInPlace()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.InDoubt) != 1 || info.InDoubt[0].TID != 9 {
		t.Fatalf("in-doubt = %+v", info.InDoubt)
	}
	got := info.InDoubt[0].Sites
	if len(got) != len(roster) {
		t.Fatalf("roster = %v, want %v", got, roster)
	}
	for i := range roster {
		if got[i] != roster[i] {
			t.Fatalf("roster = %v, want %v", got, roster)
		}
	}
	if !e.Locked("a") {
		t.Fatal("in-doubt transaction lost its lock across restart")
	}
	// Resolution applies the reconstructed pending writes.
	e.Commit(9)
	if e.GetInt("a") != 95 {
		t.Fatalf("a = %d after resolution, want 95", e.GetInt("a"))
	}
}

func TestCatchUpSkipsLockedAndForeignKeys(t *testing.T) {
	e := New("s", &wal.MemStore{})
	e.SetPlacement(func(key string) bool { return key != "foreign" })
	e.PutInt("locked", 1)
	e.PutInt("stale", 2)
	if !e.Execute(1, EncodeOps([]Op{{Kind: OpAdd, Key: "locked", Delta: 1}})) {
		t.Fatal("vote no")
	}
	// txn 1 is prepared: "locked" is held.
	n := mustCatchUp(t, e, map[string][]byte{
		"locked":  EncodeInt(99),
		"stale":   EncodeInt(20),
		"foreign": EncodeInt(5),
		"fresh":   EncodeInt(3),
	}, nil, nil)
	if n != 2 {
		t.Fatalf("applied %d keys, want 2 (stale + fresh)", n)
	}
	if e.GetInt("locked") != 1 {
		t.Fatal("locked key overwritten")
	}
	if _, ok := e.Get("foreign"); ok {
		t.Fatal("foreign key applied despite placement")
	}
	if e.GetInt("stale") != 20 || e.GetInt("fresh") != 3 {
		t.Fatalf("stale=%d fresh=%d", e.GetInt("stale"), e.GetInt("fresh"))
	}
	// Idempotent: a second identical pull changes nothing.
	if n := mustCatchUp(t, e, map[string][]byte{
		"locked": EncodeInt(99), "stale": EncodeInt(20),
		"foreign": EncodeInt(5), "fresh": EncodeInt(3),
	}, nil, nil); n != 0 {
		t.Fatalf("second pull applied %d keys, want 0", n)
	}
	// The include filter scopes the pull (shard-local catch-up).
	if n := mustCatchUp(t, e, map[string][]byte{"stale": EncodeInt(30), "fresh": EncodeInt(30)},
		nil, func(k string) bool { return k == "stale" }); n != 1 {
		t.Fatal("include filter ignored")
	}
	if e.GetInt("fresh") != 3 {
		t.Fatal("out-of-scope key changed")
	}
	// Donor-side unstable keys are neither adopted nor deleted: the value
	// is in flux at the donor, so this site's own state stands.
	if n := mustCatchUp(t, e, map[string][]byte{"stale": EncodeInt(55)},
		map[string]bool{"stale": true, "fresh": true}, nil); n != 0 {
		t.Fatalf("unstable donor keys applied: %d", n)
	}
	if e.GetInt("stale") != 30 || e.GetInt("fresh") != 3 {
		t.Fatalf("unstable handling: stale=%d fresh=%d", e.GetInt("stale"), e.GetInt("fresh"))
	}
}

// mustCatchUp is CatchUp over a store whose appends do not fail.
func mustCatchUp(t *testing.T, e *Engine, snap map[string][]byte, unstable map[string]bool, include func(string) bool) int {
	t.Helper()
	n, err := e.CatchUp(snap, unstable, include)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A restart behind many missed commits catches up in one fsync, logged
// in key order; a catch-up whose log append fails applies nothing.
func TestCatchUpIsOneSync(t *testing.T) {
	e := New("s", &wal.MemStore{})
	e.PutInt("gone", 1)
	snap := make(map[string][]byte)
	for i := 0; i < 255; i++ {
		snap[fmt.Sprintf("k%03d", i)] = EncodeInt(int64(i))
	}
	before := e.WALStats()
	if n := mustCatchUp(t, e, snap, nil, nil); n != 256 {
		t.Fatalf("changed %d keys, want 255 adopted + 1 deleted", n)
	}
	if syncs := e.WALStats().Syncs - before.Syncs; syncs != 1 {
		t.Fatalf("catch-up of 256 keys cost %d syncs, want 1", syncs)
	}
	recs, err := e.log.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	logged := recs[len(recs)-256:]
	if !slices.IsSortedFunc(logged, func(a, b wal.Record) int { return bytes.Compare(a.Key, b.Key) }) {
		t.Fatal("catch-up records are not in key order")
	}
	if _, ok := e.Get("gone"); ok || e.GetInt("k254") != 254 {
		t.Fatal("catch-up not applied")
	}

	failing := New("s", &syncFailStore{})
	failing.PutInt("gone", 1) // Put applies even though its log append failed
	if n, err := failing.CatchUp(snap, nil, nil); err == nil || n != 0 {
		t.Fatalf("catch-up over a failed sync = %d, %v; want 0 and an error", n, err)
	}
	if _, ok := failing.Get("k000"); ok || failing.GetInt("gone") != 1 {
		t.Fatal("catch-up applied changes whose log record is not durable")
	}
}

func TestStableSnapshotFlagsPendingKeys(t *testing.T) {
	e := New("s", &wal.MemStore{})
	e.PutInt("free", 1)
	e.PutInt("held", 2)
	if !e.Execute(1, EncodeOps([]Op{{Kind: OpAdd, Key: "held", Delta: 1}})) {
		t.Fatal("vote no")
	}
	snap, unstable := e.StableSnapshot()
	if !unstable["held"] || unstable["free"] {
		t.Fatalf("unstable = %v", unstable)
	}
	if DecodeInt(snap["held"]) != 2 {
		t.Fatal("snapshot should show the committed (pre-txn) value")
	}
	e.Commit(1)
	if _, unstable := e.StableSnapshot(); len(unstable) != 0 {
		t.Fatalf("unstable after commit = %v", unstable)
	}
}

// A FileStore-backed engine survives a full process round trip: execute
// and crash with an in-doubt transaction, reopen the file, recover, and
// resolve — the durability path a real deployment runs.
func TestFileStoreCrashRecoveryRoundTrip(t *testing.T) {
	path := t.TempDir() + "/site.wal"
	fs, err := wal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := New("s", fs)
	e.PutInt("acct/a", 100)
	if !e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpAdd, Key: "acct/a", Delta: -40}}),
		[]proto.SiteID{1, 2, 3}) {
		t.Fatal("vote no")
	}
	if err := fs.Close(); err != nil { // the crash: process gone, file remains
		t.Fatal(err)
	}

	fs2, err := wal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	e2, inDoubt, err := Recover("s-restarted", fs2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 1 || inDoubt[0] != 1 {
		t.Fatalf("in-doubt = %v", inDoubt)
	}
	if e2.GetInt("acct/a") != 100 {
		t.Fatalf("balance before resolution = %d", e2.GetInt("acct/a"))
	}
	e2.Commit(1) // the termination protocol said commit
	if e2.GetInt("acct/a") != 60 {
		t.Fatalf("balance after resolution = %d", e2.GetInt("acct/a"))
	}
	// And the resolution itself is durable: a second restart replays it.
	info, err := e2.RecoverInPlace()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.InDoubt) != 0 || e2.GetInt("acct/a") != 60 {
		t.Fatalf("second restart: in-doubt=%v balance=%d", info.InDoubt, e2.GetInt("acct/a"))
	}
}

// The lock-failure counter survives a restart: RecoverInPlace builds a new
// lock manager, and the observer SetMetrics installed must follow it —
// every daemon recovers at start-up, so otherwise the counter is dead.
func TestLockFailureMetricSurvivesRecovery(t *testing.T) {
	e := New("s", &wal.MemStore{})
	reg := obs.New()
	e.SetMetrics(reg, nil)
	e.PutInt("a", 100)
	if _, err := e.RecoverInPlace(); err != nil {
		t.Fatal(err)
	}
	debit := EncodeOps([]Op{{Kind: OpAdd, Key: "a", Delta: -1}})
	if !e.Execute(1, debit) {
		t.Fatal("txn 1 voted no")
	}
	if e.Execute(2, debit) {
		t.Fatal("txn 2 took a lock txn 1 holds")
	}
	if got := reg.Snapshot().Total(obs.MLockFailures); got != 1 {
		t.Fatalf("%s = %d after one conflict, want 1", obs.MLockFailures, got)
	}
}
