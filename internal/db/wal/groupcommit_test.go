package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// slowStore emulates fsync latency on top of MemStore, so that
// concurrent appenders arrive while another one's Sync is running.
type slowStore struct {
	MemStore
	delay time.Duration
}

func (s *slowStore) Sync() error {
	time.Sleep(s.delay)
	return s.MemStore.Sync()
}

// TestGroupCommitConcurrentAppends drives many concurrent appenders
// through one log: every record lands durably and in a scannable state,
// and each append issued exactly one Sync — there is no group to share
// one with.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	l := New(&slowStore{delay: 50 * time.Microsecond})
	const writers, records = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < records; r++ {
				if err := l.Append(rec(RecUpdate, uint64(w*records+r+1), "k", "v")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := l.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*records {
		t.Fatalf("scanned %d records, want %d", len(got), writers*records)
	}
	seen := make(map[uint64]bool, len(got))
	for _, r := range got {
		seen[r.TID] = true
	}
	if len(seen) != writers*records {
		t.Fatalf("scanned %d distinct records, want %d", len(seen), writers*records)
	}
	st := l.Stats()
	if st.Records != writers*records || st.Syncs != st.Records {
		t.Fatalf("Stats = %+v, want %d records and as many syncs", st, writers*records)
	}
}

// TestGroupCommitAppendReturnsDurable checks the core contract: when an
// Append returns, the record is inside the synced prefix — the bytes a
// crash (CrashContents) preserves.
func TestGroupCommitAppendReturnsDurable(t *testing.T) {
	store := &MemStore{}
	l := New(store)
	if err := l.Append(rec(RecCommit, 7, "", "")); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(store.CrashContents())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TID != 7 {
		t.Fatalf("crash contents lost the appended record: %+v", recs)
	}
}

// TestAppendBatchSingleSync checks that a multi-record transaction
// fragment hits the store once: one Write, one Sync, all records
// scannable in order.
func TestAppendBatchSingleSync(t *testing.T) {
	l := New(&MemStore{})
	batch := []Record{
		rec(RecBegin, 9, "", ""),
		rec(RecUpdate, 9, "alice", "100"),
		rec(RecUpdate, 9, "bob", "200"),
		rec(RecPrepared, 9, "", ""),
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs != 1 {
		t.Fatalf("Syncs = %d, want 1 for one batch", st.Syncs)
	}
	got, err := l.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("scanned %d records, want %d", len(got), len(batch))
	}
	for i, r := range batch {
		if got[i].Type != r.Type || got[i].TID != r.TID {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
}

// TestGroupCommitSyncErrorPropagates checks that a failing Sync reaches
// the appender whose record it was forcing.
func TestGroupCommitSyncErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	store := &failStore{failAfter: 1, err: boom}
	l := New(store)
	if err := l.Append(rec(RecBegin, 1, "", "")); err != nil {
		t.Fatalf("first append should pass: %v", err)
	}
	if err := l.Append(rec(RecCommit, 1, "", "")); !errors.Is(err, boom) {
		t.Fatalf("append error = %v, want %v", err, boom)
	}
}

// failStore fails Sync after failAfter successful calls.
type failStore struct {
	MemStore
	syncs     int
	failAfter int
	err       error
}

func (s *failStore) Sync() error {
	s.syncs++
	if s.syncs > s.failAfter {
		return s.err
	}
	return s.MemStore.Sync()
}

// TestGroupCommitFileStore exercises the real-file path end to end:
// concurrent appends, then a scan of the file contents.
func TestGroupCommitFileStore(t *testing.T) {
	fs, err := OpenFile(t.TempDir() + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	l := New(fs)
	const writers, records = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < records; r++ {
				if err := l.Append(rec(RecUpdate, uint64(w*records+r+1), "k", "v")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := l.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*records {
		t.Fatalf("scanned %d records, want %d", len(got), writers*records)
	}
}
