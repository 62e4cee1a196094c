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
	"runtime"
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
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

// Record is one log entry. Key/Value are meaningful for RecUpdate
// (Value nil means delete).
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

// Options tunes a Log's durability path.
type Options struct {
	// GroupCommit batches concurrent appenders behind one Sync: an
	// appender enqueues its encoded record and the current flush leader
	// writes the whole group with a single Write+Sync, waking every
	// waiter. Off (the zero value) keeps the classic one-fsync-per-append
	// path — identical stable-storage semantics, just no amortization.
	GroupCommit bool
	// MaxBatch caps records per flush group; 0 means DefaultMaxBatch.
	// A full group seals and a new one opens behind it.
	MaxBatch int
	// FlushInterval is how long a leader that just flushed a multi-record
	// group retains leadership waiting for its woken waiters to append
	// again, keeping groups full instead of letting the first waker lead
	// a solo flush. 0 steps down immediately — batching then comes only
	// from appenders arriving while a Sync is in flight. A solo appender
	// never pays the linger.
	FlushInterval time.Duration
}

// DefaultMaxBatch is the flush-group cap when Options.MaxBatch is 0.
const DefaultMaxBatch = 256

// DefaultFlushInterval is GroupCommitDefaults' leader-retention linger —
// well under one disk fsync, so worst-case added latency is small
// against the syscall it amortizes.
const DefaultFlushInterval = 100 * time.Microsecond

// GroupCommitDefaults is the configuration file-backed logs use unless
// told otherwise: group commit on, default cap, default linger.
func GroupCommitDefaults() Options {
	return Options{GroupCommit: true, FlushInterval: DefaultFlushInterval}
}

// flushGroup is one batch of encoded frames awaiting a shared Sync.
type flushGroup struct {
	buf []byte
	n   int
	// waiters counts the submit calls that joined the group — the
	// concurrency signal the leader's linger keys on. One AppendBatch
	// contributes many records but a single waiter.
	waiters int
	err     error
	done    chan struct{}
}

// Stats counts a Log's durability work. FsyncsPerRecord = Syncs/Records;
// mean batch occupancy = BatchedRecords/Batches.
type Stats struct {
	// Records is how many records reached stable storage.
	Records uint64
	// Syncs is how many Store.Sync calls were issued.
	Syncs uint64
	// Batches counts group-commit flush groups (0 in synchronous mode).
	Batches uint64
	// BatchedRecords totals records carried by those groups.
	BatchedRecords uint64
}

// Log appends and scans records on a Store.
type Log struct {
	mu    sync.Mutex
	store Store
	opts  Options
	count uint64
	stats Stats

	// Group-commit state: queue of sealed-or-filling groups, whether a
	// leader is flushing, and the group currently being written+synced.
	queue    []*flushGroup
	flushing bool
	inflight *flushGroup

	// Observability handles (nil = off): fsync wall latency plus the
	// registry mirrors of the Stats counters, incremented at the same
	// points so a metrics scrape and Stats() always agree.
	obsFsync          *obs.Histogram
	obsRecords        *obs.Counter
	obsSyncs          *obs.Counter
	obsBatches        *obs.Counter
	obsBatchedRecords *obs.Counter
}

// SetMetrics wires the log's durability counters and fsync-latency
// histogram into a registry (nil disables). Call before traffic; the
// handles are read without synchronization on the append path.
func (l *Log) SetMetrics(r *obs.Registry) {
	if r == nil {
		l.obsFsync = nil
		l.obsRecords, l.obsSyncs, l.obsBatches, l.obsBatchedRecords = nil, nil, nil, nil
		return
	}
	l.obsFsync = r.Histogram(obs.MWalFsyncLatency)
	l.obsRecords = r.Counter(obs.MWalRecords)
	l.obsSyncs = r.Counter(obs.MWalSyncs)
	l.obsBatches = r.Counter(obs.MWalBatches)
	l.obsBatchedRecords = r.Counter(obs.MWalBatchedRecords)
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

// New builds a log on the given store with synchronous (one fsync per
// append) durability — the classic path.
func New(store Store) *Log {
	return NewWith(store, Options{})
}

// NewWith builds a log on the given store with explicit options.
func NewWith(store Store, opts Options) *Log {
	if store == nil {
		panic("wal: nil store")
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	return &Log{store: store, opts: opts}
}

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

// Append encodes, durably writes, and (in group-commit mode, after the
// shared flush) returns once the record is on stable storage. Encoding
// happens before any lock; the Sync syscall never runs under l.mu.
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

// append routes an encoded frame sequence down the configured path.
func (l *Log) append(buf []byte, n int) error {
	if !l.opts.GroupCommit {
		return l.appendSync(buf, n)
	}
	return l.submit(buf, n)
}

// appendSync is the synchronous path: one Write under the lock, then the
// Sync outside it (a concurrent appender's later Sync covering our bytes
// is just as durable), then the counters.
func (l *Log) appendSync(buf []byte, n int) error {
	l.mu.Lock()
	_, err := l.store.Write(buf)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.mu.Lock()
	l.count += uint64(n)
	l.stats.Records += uint64(n)
	l.stats.Syncs++
	l.mu.Unlock()
	l.obsRecords.Add(uint64(n))
	l.obsSyncs.Add(1)
	return nil
}

// submit joins (or opens) a flush group. The first submitter while no
// flush is running becomes the leader and drives lead(); everyone else
// just waits on their group's done channel.
func (l *Log) submit(buf []byte, n int) error {
	l.mu.Lock()
	var g *flushGroup
	if len(l.queue) > 0 {
		if last := l.queue[len(l.queue)-1]; last.n+n <= l.opts.MaxBatch {
			g = last
		}
	}
	if g == nil {
		g = &flushGroup{done: make(chan struct{})}
		l.queue = append(l.queue, g)
	}
	g.buf = append(g.buf, buf...)
	g.n += n
	g.waiters++
	lead := !l.flushing
	if lead {
		l.flushing = true
	}
	l.mu.Unlock()
	if lead {
		l.lead()
	}
	<-g.done
	return g.err
}

// lead drains the group queue: pop a group, write it with one Write, make
// it durable with one Sync, wake its waiters, repeat until the queue is
// empty. Groups forming while a flush is in progress ride the next
// iteration — that in-flight window is where group commit's amortization
// comes from. After flushing a group with multiple WAITERS the leader
// lingers FlushInterval before stepping down: its just-woken waiters are
// usually about to append again, and letting them enqueue under the
// sitting leader keeps groups full instead of letting the first waker
// lead a near-empty flush. A multi-record group from a single caller
// (AppendBatch) earns no linger — there is no concurrency to wait for.
func (l *Log) lead() {
	lastWaiters := 0
	for {
		l.mu.Lock()
		if len(l.queue) == 0 && lastWaiters > 1 && l.opts.FlushInterval > 0 {
			// Spin-yield rather than sleep: timer granularity can
			// stretch a sub-millisecond sleep by an order of magnitude,
			// and the waiters we are lingering for are already runnable.
			deadline := time.Now().Add(l.opts.FlushInterval)
			for len(l.queue) == 0 && time.Now().Before(deadline) {
				l.mu.Unlock()
				runtime.Gosched()
				l.mu.Lock()
			}
		}
		if len(l.queue) == 0 {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		g := l.queue[0]
		l.queue = l.queue[1:]
		l.inflight = g
		l.mu.Unlock()

		var err error
		if _, werr := l.store.Write(g.buf); werr != nil {
			err = fmt.Errorf("wal: append batch: %w", werr)
		} else if serr := l.sync(); serr != nil {
			err = fmt.Errorf("wal: sync: %w", serr)
		}

		l.mu.Lock()
		l.inflight = nil
		if err == nil {
			l.count += uint64(g.n)
			l.stats.Records += uint64(g.n)
			l.stats.Syncs++
			l.stats.Batches++
			l.stats.BatchedRecords += uint64(g.n)
		}
		l.mu.Unlock()
		if err == nil {
			l.obsRecords.Add(uint64(g.n))
			l.obsSyncs.Add(1)
			l.obsBatches.Add(1)
			l.obsBatchedRecords.Add(uint64(g.n))
		}
		g.err = err
		close(g.done)
		lastWaiters = g.waiters
	}
}

// Flush blocks until every record enqueued before the call is durable
// (groups flush in order, so waiting on the youngest covers them all).
// It returns that flush's error.
func (l *Log) Flush() error {
	l.mu.Lock()
	inflight := l.inflight
	var last *flushGroup
	if len(l.queue) > 0 {
		last = l.queue[len(l.queue)-1]
	}
	l.mu.Unlock()
	if last != nil {
		<-last.done
		return last.err
	}
	if inflight != nil {
		<-inflight.done
		return inflight.err
	}
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
// failed Replace leaves the old log. Pending group-commit flushes drain
// first so no in-flight batch lands in the discarded log.
func (l *Log) Replace(rs []Record) error {
	var buf []byte
	for _, r := range rs {
		buf = appendFrame(buf, r)
	}
	l.Flush() //nolint:errcheck // an append's flush error is its appender's; the replace writes afresh
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

// ScanStore reads and decodes the store's stable contents, draining any
// pending group-commit flushes first so the scan sees every append that
// returned (or was fired async) before the call.
func (l *Log) ScanStore() ([]Record, error) {
	l.Flush() //nolint:errcheck // a failed flush still leaves scannable contents
	raw, err := l.store.Contents()
	if err != nil {
		return nil, fmt.Errorf("wal: read store: %w", err)
	}
	return Scan(raw)
}

// TxnOutcome summarizes one transaction's fate in a scanned log.
type TxnOutcome struct {
	TID      uint64
	Updates  []Record // RecUpdate records in order
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
		case RecUpdate:
			t.Updates = append(t.Updates, r)
		case RecPrepared:
			t.Prepared = true
		case RecCommit, RecAbort:
			t.Decided = r.Type
		}
	}
	return out
}
