package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzScan hammers the recovery scanner with corrupted and truncated log
// bytes: whatever the damage, Scan must never panic, must only ever fail
// with ErrCorrupt, and every record it does accept must survive a
// re-append/rescan round trip — a recovering site acts on these records,
// so a scanner that invents data is a durability bug.
func FuzzScan(f *testing.F) {
	// Seed corpus: a healthy little log, its truncations, and bit flips.
	l := New(&MemStore{})
	l.Append(Record{Type: RecBegin, TID: 1, Value: []byte{0, 2, 0, 0, 0, 1, 0, 0, 0, 2}})                                //nolint:errcheck
	l.Append(Record{Type: RecUpdate, TID: 1, Key: []byte("acct/a"), Value: []byte("100")})                               //nolint:errcheck
	l.Append(Record{Type: RecAdd, TID: 1, Key: []byte("acct/c"), Value: []byte{255, 255, 255, 255, 255, 255, 255, 216}}) //nolint:errcheck
	l.Append(Record{Type: RecPrepared, TID: 1})                                                                          //nolint:errcheck
	l.Append(Record{Type: RecCommit, TID: 1})                                                                            //nolint:errcheck
	l.Append(Record{Type: RecApply, Key: []byte("acct/b"), Value: []byte("7")})                                          //nolint:errcheck
	healthy, err := storeOf(l).Contents()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	for cut := 1; cut < len(healthy); cut += 7 {
		f.Add(healthy[:len(healthy)-cut])
	}
	for i := 0; i < len(healthy); i += 11 {
		flipped := append([]byte(nil), healthy...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := Scan(raw)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Scan failed with a non-corruption error: %v", err)
		}
		// Accepted records must round-trip exactly.
		m := &MemStore{}
		relog := New(m)
		for _, r := range recs {
			if err := relog.Append(r); err != nil {
				t.Fatalf("re-append of scanned record %+v: %v", r, err)
			}
		}
		again, err := relog.ScanStore()
		if err != nil {
			t.Fatalf("rescan of re-encoded records: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip: %d records became %d", len(recs), len(again))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.Type != b.Type || a.TID != b.TID ||
				!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("record %d mutated in round trip: %+v vs %+v", i, a, b)
			}
		}
	})
}

// storeOf digs the store out of a log for corpus construction.
func storeOf(l *Log) Store { return l.store }
