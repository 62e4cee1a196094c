package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func rec(t RecordType, tid uint64, k, v string) Record {
	r := Record{Type: t, TID: tid}
	if k != "" {
		r.Key = []byte(k)
	}
	if v != "" {
		r.Value = []byte(v)
	}
	return r
}

func TestAppendScanRoundTrip(t *testing.T) {
	l := New(&MemStore{})
	want := []Record{
		rec(RecBegin, 1, "", ""),
		rec(RecUpdate, 1, "alice", "100"),
		rec(RecUpdate, 1, "bob", ""),
		rec(RecPrepared, 1, "", ""),
		rec(RecCommit, 1, "", ""),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].TID != want[i].TID ||
			!bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
}

func TestNilVsEmptyValue(t *testing.T) {
	l := New(&MemStore{})
	if err := l.Append(Record{Type: RecUpdate, TID: 1, Key: []byte("k"), Value: nil}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecUpdate, TID: 1, Key: []byte("k"), Value: []byte{}}); err != nil {
		t.Fatal(err)
	}
	got, err := l.ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != nil {
		t.Fatal("nil value (delete marker) not preserved")
	}
	if got[1].Value == nil || len(got[1].Value) != 0 {
		t.Fatal("empty value not preserved distinct from nil")
	}
}

func TestTornTailTruncated(t *testing.T) {
	m := &MemStore{}
	l := New(m)
	l.Append(rec(RecBegin, 1, "", ""))    //nolint:errcheck
	l.Append(rec(RecUpdate, 1, "k", "v")) //nolint:errcheck
	raw, _ := m.Contents()
	for cut := 1; cut < 12; cut++ {
		torn := raw[:len(raw)-cut]
		recs, err := Scan(torn)
		if err != nil {
			t.Fatalf("cut %d: torn tail reported error %v", cut, err)
		}
		if len(recs) != 1 {
			t.Fatalf("cut %d: got %d records, want 1 (tail dropped)", cut, len(recs))
		}
	}
}

func TestCorruptMiddleDetected(t *testing.T) {
	m := &MemStore{}
	l := New(m)
	l.Append(rec(RecBegin, 1, "", ""))    //nolint:errcheck
	l.Append(rec(RecUpdate, 1, "k", "v")) //nolint:errcheck
	raw, _ := m.Contents()
	raw[10] ^= 0xFF // flip a bit inside the first record's body
	_, err := Scan(raw)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestCrashLosesUnsynced(t *testing.T) {
	m := &MemStore{}
	l := New(m)
	l.Append(rec(RecBegin, 1, "", "")) //nolint:errcheck
	// Write past the sync boundary manually.
	m.Write([]byte("partial garbage")) //nolint:errcheck
	recs, err := Scan(m.CrashContents())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("crash contents produced %d records, want 1", len(recs))
	}
}

func TestReplace(t *testing.T) {
	m := &MemStore{}
	l := New(m)
	l.Append(rec(RecBegin, 1, "", ""))  //nolint:errcheck
	l.Append(rec(RecCommit, 1, "", "")) //nolint:errcheck
	m.Write([]byte("unsynced garbage")) //nolint:errcheck
	if err := l.Replace([]Record{rec(RecCheckpoint, 0, "", "")}); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"contents": mustContents(t, m), "crash contents": m.CrashContents()} {
		recs, err := Scan(raw)
		if err != nil || len(recs) != 1 || recs[0].Type != RecCheckpoint {
			t.Fatalf("%s after replace: %v, err %v", name, recs, err)
		}
	}
	if l.Count() != 1 {
		t.Fatalf("count %d after replace, want 1", l.Count())
	}
}

func mustContents(t *testing.T, s Store) []byte {
	t.Helper()
	raw, err := s.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// A Replace that crashed before its rename leaves <path>.next beside a
// whole old log: OpenFile removes it and the log reads as before, and a
// Replace after that swaps the contents and survives a reopen.
func TestFileStoreIgnoresStaleNext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site1.wal")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(fs).Append(rec(RecCommit, 7, "", "")); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := os.WriteFile(path+".next", []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".next"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale .next survived OpenFile: %v", err)
	}
	recs, err := Scan(mustContents(t, fs))
	if err != nil || len(recs) != 1 || recs[0].TID != 7 {
		t.Fatalf("log after reopen: %v, err %v", recs, err)
	}
	l := New(fs)
	if err := l.Replace([]Record{rec(RecCheckpoint, 0, "", "")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecCommit, 8, "", "")); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	recs, err = Scan(mustContents(t, fs))
	if err != nil || len(recs) != 2 || recs[0].Type != RecCheckpoint || recs[1].TID != 8 {
		t.Fatalf("log after replace and reopen: %v, err %v", recs, err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site1.wal")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	l := New(fs)
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(rec(RecUpdate, i, "key", "val")); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen and scan.
	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	recs, err := New(fs2).ScanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("file scan got %d records", len(recs))
	}
	// Append after reopen continues the log.
	l2 := New(fs2)
	if err := l2.Append(rec(RecCommit, 10, "", "")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l2.ScanStore()
	if len(recs) != 11 {
		t.Fatalf("post-reopen scan got %d records", len(recs))
	}
}

func TestAnalyze(t *testing.T) {
	recs := []Record{
		rec(RecBegin, 1, "", ""),
		rec(RecUpdate, 1, "a", "1"),
		rec(RecPrepared, 1, "", ""),
		rec(RecCommit, 1, "", ""),

		rec(RecBegin, 2, "", ""),
		rec(RecUpdate, 2, "b", "2"),
		rec(RecPrepared, 2, "", ""), // in doubt: prepared, undecided

		rec(RecBegin, 3, "", ""),
		rec(RecUpdate, 3, "c", "3"),
		rec(RecAbort, 3, "", ""),

		rec(RecBegin, 4, "", ""), // active, never prepared
	}
	an := Analyze(recs)
	if len(an) != 4 {
		t.Fatalf("Analyze found %d txns", len(an))
	}
	if an[1].Decided != RecCommit || !an[1].Prepared || len(an[1].Updates) != 1 {
		t.Fatalf("txn1 = %+v", an[1])
	}
	if an[2].Decided != 0 || !an[2].Prepared {
		t.Fatalf("txn2 (in doubt) = %+v", an[2])
	}
	if an[3].Decided != RecAbort {
		t.Fatalf("txn3 = %+v", an[3])
	}
	if an[4].Prepared || an[4].Decided != 0 {
		t.Fatalf("txn4 = %+v", an[4])
	}
}

// Property: any sequence of records round-trips through encode/scan.
func TestRoundTripProperty(t *testing.T) {
	f := func(tids []uint64, keys, vals [][]byte, types []uint8) bool {
		m := &MemStore{}
		l := New(m)
		n := len(tids)
		if n > 50 {
			n = 50
		}
		var want []Record
		for i := 0; i < n; i++ {
			var tb uint8
			if len(types) > 0 {
				tb = types[i%len(types)]
			}
			r := Record{
				Type: RecordType(tb%5 + 1),
				TID:  tids[i],
			}
			if len(keys) > 0 {
				r.Key = keys[i%len(keys)]
			}
			if len(vals) > 0 {
				r.Value = vals[i%len(vals)]
			}
			if err := l.Append(r); err != nil {
				return false
			}
			want = append(want, r)
		}
		got, err := l.ScanStore()
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			w := want[i]
			g := got[i]
			if g.Type != w.Type || g.TID != w.TID || !bytes.Equal(g.Key, w.Key) {
				return false
			}
			// nil normalizes to nil, non-nil round-trips exactly.
			if (w.Value == nil) != (g.Value == nil) || !bytes.Equal(g.Value, w.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[RecordType]string{
		RecBegin: "begin", RecUpdate: "update", RecPrepared: "prepared",
		RecCommit: "commit", RecAbort: "abort", RecApply: "apply",
		RecCheckpoint: "checkpoint", RecAdd: "add", RecordType(99): "rec(99)",
	} {
		if got := rt.String(); got != want {
			t.Errorf("%d = %q, want %q", rt, got, want)
		}
	}
}

// An add record is one of its transaction's updates, in log order beside
// the absolute ones.
func TestAnalyzeKeepsAdds(t *testing.T) {
	an := Analyze([]Record{
		rec(RecBegin, 1, "", ""),
		rec(RecUpdate, 1, "a", "1"),
		{Type: RecAdd, TID: 1, Key: []byte("b"), Value: []byte{0, 0, 0, 0, 0, 0, 0, 5}},
		rec(RecPrepared, 1, "", ""),
	})
	if u := an[1].Updates; len(u) != 2 || u[0].Type != RecUpdate || u[1].Type != RecAdd || !an[1].Prepared {
		t.Fatalf("txn1 = %+v, want its update and its add, prepared", an[1])
	}
}

func TestNewPanicsOnNilStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil store accepted")
		}
	}()
	New(nil)
}

func BenchmarkAppend(b *testing.B) {
	l := New(&MemStore{})
	r := rec(RecUpdate, 7, "some-key", "some-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}
