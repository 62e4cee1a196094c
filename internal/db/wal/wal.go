// Package wal implements the write-ahead log that gives each site the
// stable-storage semantics Section 2 of Huang & Li (ICDE 1987) assumes:
// a commit log record is forced to stable storage before updates are
// applied, updates are replayed idempotently on recovery, and a
// transaction whose commit record never reached stable storage is aborted
// on recovery.
//
// Records are length-prefixed and CRC32-checksummed; a torn tail (partial
// final record, e.g. a crash mid-append) is detected and truncated during
// scanning rather than treated as corruption.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"termproto/internal/obs"
)

// RecordType identifies a log record's role in the commit protocol.
type RecordType uint8

// Record types.
const (
	RecBegin      RecordType = iota + 1 // transaction began at this site
	RecUpdate                           // one buffered update (redo information)
	RecPrepared                         // site voted yes; updates are stable
	RecCommit                           // decision: commit
	RecAbort                            // decision: abort
	RecApply                            // directly-applied committed write (fixture load, recovery catch-up)
	RecCheckpoint                       // checkpoint marker: log was compacted at this point
	RecAdd                              // one buffered increment: Value is the 8-byte delta, redone against the row
)

// String returns the record type name.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecUpdate:
		return "update"
	case RecPrepared:
		return "prepared"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecApply:
		return "apply"
	case RecCheckpoint:
		return "checkpoint"
	case RecAdd:
		return "add"
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

// Record is one log entry. Key/Value are meaningful for RecUpdate
// (Value nil means delete), RecAdd (Value is the delta) and RecApply.
type Record struct {
	Type  RecordType
	TID   uint64
	Key   []byte
	Value []byte
}

// ErrCorrupt reports a checksum or structural failure in the middle of the
// log (not a torn tail).
var ErrCorrupt = errors.New("wal: corrupt record")

// Store is the stable-storage abstraction: an append-only byte sequence
// with atomic visibility of Sync'd prefixes.
type Store interface {
	io.Writer
	// Sync forces previously written bytes to stable storage.
	Sync() error
	// Contents returns the stable contents for recovery scans.
	Contents() ([]byte, error)
	// Replace swaps the whole contents for p, durably and atomically: a
	// crash at any point leaves either the old contents or p, and a failed
	// Replace leaves the old contents (used by checkpointing).
	Replace(p []byte) error
}

// MemStore is an in-memory Store for simulations and tests. It tracks the
// synced watermark so tests can model a crash that loses unsynced bytes.
type MemStore struct {
	mu     sync.Mutex
	buf    []byte
	synced int
}

// Write implements Store.
func (m *MemStore) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// Sync implements Store.
func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced = len(m.buf)
	return nil
}

// Contents implements Store: everything written, synced or not (the
// in-memory store never "crashes" on its own; see CrashContents).
func (m *MemStore) Contents() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf...), nil
}

// CrashContents returns only the synced prefix, modelling a crash that
// loses buffered writes.
func (m *MemStore) CrashContents() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf[:m.synced]...)
}

// Replace implements Store.
func (m *MemStore) Replace(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = append([]byte(nil), p...)
	m.synced = len(m.buf)
	return nil
}

// FileStore is a file-backed Store. Replace writes the new contents to
// <path>.next and renames it over the log.
type FileStore struct {
	path string
	f    *os.File
}

// OpenFile opens (creating if needed) a file-backed store. A <path>.next
// left by a Replace that crashed before its rename is removed: the log at
// path is still the whole of the old contents.
func OpenFile(path string) (*FileStore, error) {
	if err := os.Remove(path + ".next"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: remove stale %s.next: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileStore{path: path, f: f}, nil
}

// Write implements Store.
func (s *FileStore) Write(p []byte) (int, error) { return s.f.Write(p) }

// Sync implements Store.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Contents implements Store.
func (s *FileStore) Contents() ([]byte, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	defer s.f.Seek(0, io.SeekEnd) //nolint:errcheck // restore append position
	return io.ReadAll(s.f)
}

// Replace implements Store: write p to <path>.next, fsync it, rename it
// over the log, then fsync the directory so the rename itself is durable.
// The store appends to the new file from then on.
func (s *FileStore) Replace(p []byte) error {
	next := s.path + ".next"
	f, err := os.OpenFile(next, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(p); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(next, s.path)
	}
	if err != nil {
		f.Close()
		os.Remove(next) //nolint:errcheck // OpenFile removes a leftover too
		return err
	}
	s.f.Close() //nolint:errcheck // the old log is unlinked; nothing more reads or writes it
	s.f = f
	return syncDir(filepath.Dir(s.path))
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// Options has no fields: a Log has one append path. It stays, with
// GroupCommitDefaults and NewWith, only because bench/ compiles against
// those names (ROADMAP 10b).
type Options struct{}

// GroupCommitDefaults returns the empty Options. Kept for bench/ only
// (ROADMAP 10b).
func GroupCommitDefaults() Options { return Options{} }

// Stats counts a Log's durability work. FsyncsPerRecord = Syncs/Records.
type Stats struct {
	// Records is how many records reached stable storage.
	Records uint64
	// Syncs is how many Store.Sync calls were issued.
	Syncs uint64
}

// Log appends and scans records on a Store.
type Log struct {
	mu    sync.Mutex
	store Store
	count uint64
	stats Stats

	// Observability handles (nil = off): fsync wall latency plus the
	// registry mirrors of the Stats counters, incremented at the same
	// points so a metrics scrape and Stats() always agree.
	obsFsync   *obs.Histogram
	obsRecords *obs.Counter
	obsSyncs   *obs.Counter
}

// SetMetrics wires the log's durability counters and fsync-latency
// histogram into a registry (nil disables). Call before traffic; the
// handles are read without synchronization on the append path.
func (l *Log) SetMetrics(r *obs.Registry) {
	if r == nil {
		l.obsFsync, l.obsRecords, l.obsSyncs = nil, nil, nil
		return
	}
	l.obsFsync = r.Histogram(obs.MWalFsyncLatency)
	l.obsRecords = r.Counter(obs.MWalRecords)
	l.obsSyncs = r.Counter(obs.MWalSyncs)
}

// sync forces the store and, when metrics are on, observes the fsync
// wall latency in microseconds.
func (l *Log) sync() error {
	if l.obsFsync == nil {
		return l.store.Sync()
	}
	start := time.Now()
	err := l.store.Sync()
	l.obsFsync.Observe(time.Since(start).Microseconds())
	return err
}

// New builds a log on the given store.
func New(store Store) *Log {
	if store == nil {
		panic("wal: nil store")
	}
	return &Log{store: store}
}

// NewWith is New. Kept for bench/ only (ROADMAP 10b).
func NewWith(store Store, _ Options) *Log { return New(store) }

// record wire format:
//
//	u32 length of body
//	u32 crc32(body)
//	body: u8 type | u64 tid | u32 keyLen | key | u32 valLen+1 (0 = nil) | val

// appendFrame encodes one record (header + body) onto buf.
func appendFrame(buf []byte, r Record) []byte {
	head := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendBody(buf, r)
	body := buf[head+8:]
	binary.BigEndian.PutUint32(buf[head:head+4], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[head+4:head+8], crc32.ChecksumIEEE(body))
	return buf
}

// Append encodes one record and returns once it is on stable storage.
func (l *Log) Append(r Record) error {
	return l.append(appendFrame(nil, r), 1)
}

// AppendBatch writes a multi-record transaction fragment (e.g.
// begin+updates+prepared) as one frame sequence hitting the store once:
// a single Write and a single Sync cover the whole batch.
func (l *Log) AppendBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range rs {
		buf = appendFrame(buf, r)
	}
	return l.append(buf, len(rs))
}

// append is the one durability path, for every store: under l.mu, one
// Write, one Sync, then the counters. An append has two crash points,
// before its Write returns and before its Sync returns; its records
// count only once the Sync has.
func (l *Log) append(buf []byte, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.store.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.count += uint64(n)
	l.stats.Records += uint64(n)
	l.stats.Syncs++
	l.obsRecords.Add(uint64(n))
	l.obsSyncs.Add(1)
	return nil
}

// Count returns how many records this Log instance has made durable.
func (l *Log) Count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Stats returns cumulative durability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Replace swaps the whole log for rs — a checkpoint's compacted history —
// in one atomic Store.Replace: a crash leaves the old log or rs, and a
// failed Replace leaves the old log.
func (l *Log) Replace(rs []Record) error {
	var buf []byte
	for _, r := range rs {
		buf = appendFrame(buf, r)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.store.Replace(buf); err != nil {
		return fmt.Errorf("wal: replace: %w", err)
	}
	l.count = uint64(len(rs))
	l.stats.Records += uint64(len(rs))
	l.obsRecords.Add(uint64(len(rs)))
	return nil
}

func appendBody(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.BigEndian.AppendUint64(buf, r.TID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Key)))
	buf = append(buf, r.Key...)
	if r.Value == nil {
		buf = binary.BigEndian.AppendUint32(buf, 0)
	} else {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Value))+1)
		buf = append(buf, r.Value...)
	}
	return buf
}

func decodeBody(body []byte) (Record, error) {
	if len(body) < 1+8+4 {
		return Record{}, ErrCorrupt
	}
	r := Record{Type: RecordType(body[0]), TID: binary.BigEndian.Uint64(body[1:9])}
	rest := body[9:]
	kl := binary.BigEndian.Uint32(rest[0:4])
	rest = rest[4:]
	if uint32(len(rest)) < kl+4 {
		return Record{}, ErrCorrupt
	}
	if kl > 0 {
		r.Key = append([]byte(nil), rest[:kl]...)
	}
	rest = rest[kl:]
	vl := binary.BigEndian.Uint32(rest[0:4])
	rest = rest[4:]
	if vl > 0 {
		if uint32(len(rest)) < vl-1 {
			return Record{}, ErrCorrupt
		}
		r.Value = make([]byte, vl-1)
		copy(r.Value, rest[:vl-1])
	}
	return r, nil
}

// Scan decodes records from raw stable contents. A torn tail (incomplete
// final record) ends the scan cleanly; a checksum failure in the middle
// returns ErrCorrupt alongside the records decoded so far.
func Scan(raw []byte) ([]Record, error) {
	var out []Record
	for len(raw) > 0 {
		if len(raw) < 8 {
			return out, nil // torn header
		}
		n := binary.BigEndian.Uint32(raw[0:4])
		sum := binary.BigEndian.Uint32(raw[4:8])
		if uint32(len(raw)-8) < n {
			return out, nil // torn body
		}
		body := raw[8 : 8+n]
		if crc32.ChecksumIEEE(body) != sum {
			return out, fmt.Errorf("%w: checksum mismatch at record %d", ErrCorrupt, len(out))
		}
		r, err := decodeBody(body)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		raw = raw[8+n:]
	}
	return out, nil
}

// ScanStore reads and decodes the store's contents, under l.mu so that no
// append is in progress while it reads.
func (l *Log) ScanStore() ([]Record, error) {
	l.mu.Lock()
	raw, err := l.store.Contents()
	l.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("wal: read store: %w", err)
	}
	return Scan(raw)
}

// TxnOutcome summarizes one transaction's fate in a scanned log.
type TxnOutcome struct {
	TID      uint64
	Updates  []Record // RecUpdate and RecAdd records in order
	Prepared bool
	Decided  RecordType // RecCommit, RecAbort, or 0 if in doubt
	// BeginMeta is the RecBegin record's value — opaque recovery metadata
	// the database layer attached at begin time (the participant roster).
	BeginMeta []byte
}

// Analyze groups scanned records per transaction — the recovery driver's
// view: committed transactions are redone, aborted ones discarded, and
// prepared-but-undecided ones surfaced as in-doubt. RecApply records are
// not transactional (they are already-committed state) and are skipped;
// recovery replays them positionally from the raw record list.
func Analyze(records []Record) map[uint64]*TxnOutcome {
	out := make(map[uint64]*TxnOutcome)
	get := func(tid uint64) *TxnOutcome {
		t := out[tid]
		if t == nil {
			t = &TxnOutcome{TID: tid}
			out[tid] = t
		}
		return t
	}
	for _, r := range records {
		if r.Type == RecApply || r.Type == RecCheckpoint {
			continue
		}
		t := get(r.TID)
		switch r.Type {
		case RecBegin:
			if len(r.Value) > 0 {
				t.BeginMeta = r.Value
			}
		case RecUpdate, RecAdd:
			t.Updates = append(t.Updates, r)
		case RecPrepared:
			t.Prepared = true
		case RecCommit, RecAbort:
			t.Decided = r.Type
		}
	}
	return out
}
