package netnode

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/trace"
)

// syncFailStore is a log store whose every Sync fails — and so every
// Replace, which must fsync what it writes.
type syncFailStore struct{ wal.MemStore }

func (*syncFailStore) Sync() error { return errors.New("sync: disk gone") }

func (*syncFailStore) Replace([]byte) error { return errors.New("sync: disk gone") }

// slowStore is a log store whose Sync takes a while and notes when each one
// returned, so that "before the force" and "after the force" are instants a
// microsecond trace can tell apart.
type slowStore struct {
	wal.MemStore
	mu       sync.Mutex
	returned []time.Time
}

func (s *slowStore) Sync() error {
	time.Sleep(3 * time.Millisecond)
	err := s.MemStore.Sync()
	s.mu.Lock()
	s.returned = append(s.returned, time.Now())
	s.mu.Unlock()
	return err
}

var forceBody = engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "k", Value: []byte("v")}})

// The side condition of stage-send-force, for every protocol we ship: the
// master's xact leaves before its own fragment is durable, and nothing that
// asserts the master's vote does — no prepare and no decision is sent
// before the force has returned.
func TestMasterSendsNoPrepareBeforeItsForce(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			protocol, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			master := &slowStore{}
			dir := t.TempDir()
			nodes, _ := startNodesWith(t, 3, []wal.Store{master, &wal.MemStore{}, &wal.MemStore{}}, false, func(o *Options) {
				o.Protocol = protocol
				o.TraceOut = filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", o.ID))
			})
			master.mu.Lock()
			before := len(master.returned) // start-up may have written a checkpoint
			master.mu.Unlock()
			if err := nodes[0].Submit(1, 1, []proto.SiteID{1, 2, 3}, nil, forceBody); err != nil {
				t.Fatal(err)
			}
			waitDecided(t, nodes, 1, proto.Commit)

			master.mu.Lock()
			forced := master.returned[before].UnixMicro() // the prepare fragment is the first append since
			master.mu.Unlock()
			xacts, later := 0, 0
			events, err := trace.ReadJSONLFile(filepath.Join(dir, "trace-1.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				if ev.Kind != trace.Send || ev.TID != 1 {
					continue
				}
				switch {
				case ev.MsgKind == proto.MsgXact.String():
					xacts++
					if int64(ev.At) >= forced {
						t.Errorf("xact to %d left %d µs after the force returned; it should not have waited for it", ev.To, int64(ev.At)-forced)
					}
				default:
					later++
					if int64(ev.At) < forced {
						t.Errorf("%s to %d left %d µs before the master's own force returned", ev.MsgKind, ev.To, forced-int64(ev.At))
					}
				}
			}
			if xacts != 2 || later == 0 {
				t.Fatalf("trace holds %d xact sends and %d later ones, want 2 and some", xacts, later)
			}
		})
	}
}

// The master's own force fails: that is its no vote. The transaction
// aborts everywhere, the master holds no key and nothing of it is durable.
func TestMasterForceFailureAbortsEverywhere(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			protocol, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			master := &syncFailStore{}
			nodes, _ := startNodesWith(t, 3, []wal.Store{master, &wal.MemStore{}, &wal.MemStore{}}, false,
				func(o *Options) { o.Protocol = protocol })
			if err := nodes[0].Submit(1, 1, []proto.SiteID{1, 2, 3}, nil, forceBody); err != nil {
				t.Fatal(err)
			}
			waitDecided(t, nodes, 1, proto.Abort)
			for _, node := range nodes {
				if _, ok := node.Engine().Get("k"); ok || node.Engine().Locked("k") {
					t.Errorf("site %d: k written or still locked after the abort", node.opts.ID)
				}
			}
			if durable, err := wal.Scan(master.CrashContents()); err != nil || len(durable) != 0 {
				t.Fatalf("master's durable log holds %d records (%v), want none", len(durable), err)
			}
			written, _ := master.Contents()
			recs, err := wal.Scan(written)
			if err != nil {
				t.Fatal(err)
			}
			if o := wal.Analyze(recs)[1]; o == nil || o.Decided != wal.RecAbort {
				t.Fatalf("master's log reads %+v for the transaction, want a logged abort", o)
			}
			for _, r := range recs {
				if r.TID == 1 && r.Type == wal.RecCommit {
					t.Fatal("master logged a commit")
				}
			}
		})
	}
}
