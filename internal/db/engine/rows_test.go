package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

// Two engines holding the same rows write byte-identical checkpoints,
// however the rows arrived: Checkpoint logs its RecApply records in
// ascending byte order of key, not in map or insertion order.
func TestCheckpointLogKeyOrder(t *testing.T) {
	keys := []string{"", "a", "ab", "b", "Z", "\x00meta", "\xff", "é", "acct/10", "acct/9"}
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	build := func(seed int64) *wal.MemStore {
		store := &wal.MemStore{}
		e := New("s", store)
		order := append([]string(nil), keys...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		half := len(order) / 2
		for _, k := range order[:half] {
			e.Put(k, []byte("v:"+k))
		}
		values := make(map[string][]byte)
		for _, k := range order[half:] {
			values[k] = []byte("v:" + k)
		}
		if _, err := e.CatchUp(values, nil, func(k string) bool { _, ok := values[k]; return ok }); err != nil {
			t.Fatal(err)
		}
		// A row written and then deleted leaves nothing behind.
		e.Put("gone", []byte("x"))
		if !e.ExecuteAt(1, EncodeOps([]Op{{Kind: OpDelete, Key: "gone"}}), nil) {
			t.Fatal("delete voted no")
		}
		e.Commit(1)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return store
	}
	a, b := build(1), build(2)
	rawA, _ := a.Contents()
	rawB, _ := b.Contents()
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("same rows, different insertion order: checkpoint logs differ")
	}
	recs, err := wal.Scan(rawA)
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, r := range recs {
		if r.Type == wal.RecApply {
			applied = append(applied, string(r.Key))
		}
	}
	if len(applied) != len(keys) {
		t.Fatalf("checkpoint logs %d rows, want %d", len(applied), len(keys))
	}
	for i := 1; i < len(applied); i++ {
		if bytes.Compare([]byte(applied[i-1]), []byte(applied[i])) >= 0 {
			t.Fatalf("RecApply %d (%q) not after %q", i, applied[i], applied[i-1])
		}
	}
}

// A stored row is the engine's own copy: mutating the slice handed to Put
// or CatchUp, or a value in the map Snapshot returns, leaves it as it
// was. An empty value is a present row that reads back empty.
func TestRowsNotAliased(t *testing.T) {
	e := New("s", &wal.MemStore{})
	put := []byte("put")
	e.Put("p", put)
	put[0] = 'X'
	batch := map[string][]byte{"b": []byte("batch")}
	if _, err := e.CatchUp(batch, nil, func(k string) bool { return k == "b" }); err != nil {
		t.Fatal(err)
	}
	batch["b"][0] = 'X'
	snap := e.Snapshot()
	snap["p"][0] = 'Y'
	snap["b"][0] = 'Y'
	for k, want := range map[string]string{"p": "put", "b": "batch"} {
		if v, ok := e.Get(k); !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q/%v, want %q", k, v, ok, want)
		}
	}
	e.Put("empty", []byte{})
	if v, ok := e.Get("empty"); !ok || len(v) != 0 {
		t.Fatalf("Get(empty) = %q/%v, want an empty present row", v, ok)
	}
}

// One writer stages, forces, commits and checkpoints while readers call
// every accessor that touches the rows or the lock table. Run under -race:
// an accessor that reads the rows map without e.mu is a fatal concurrent
// map access here, not a silent race in a daemon.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	e := New("s", &wal.MemStore{})
	const accounts = 8
	for a := 0; a < accounts; a++ {
		e.PutInt(fmt.Sprintf("acct/%d", a), 1000)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e.Get("acct/0")
				e.Len()
				e.Snapshot()
				e.StableSnapshot()
				e.Locked("acct/1")
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		tid := proto.TxnID(i)
		ops := []Op{
			{Kind: OpAdd, Key: fmt.Sprintf("acct/%d", i%accounts), Delta: -1},
			{Kind: OpAdd, Key: fmt.Sprintf("acct/%d", (i+1)%accounts), Delta: 1},
			{Kind: OpPut, Key: fmt.Sprintf("row/%d", i), Value: []byte("v")},
		}
		if !e.StageAt(tid, EncodeOps(ops), []proto.SiteID{1, 2}) || !e.Force(tid) {
			t.Fatalf("txn %d voted no", i)
		}
		e.Commit(tid)
		if i%50 == 0 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	readers.Wait()
	if got, want := e.Len(), accounts+200; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
