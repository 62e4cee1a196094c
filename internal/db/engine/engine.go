// Package engine assembles a site-local database — rows in a map, a
// write-ahead log, and a lock table — the database of one site under the
// commit protocols: partial execution produces the site's vote, the
// decision applies or discards the buffered updates, and recovery replays
// the log idempotently (paper §2).
//
// A key a body writes is locked exclusively and its update resolved to an
// absolute after-image. A key a body only adds to is locked in add mode,
// beside other adders, under an escrow guard (O'Neil, TODS 1986): a debit
// is admitted only while the committed value covers it after every other
// holder's pending debit — a pending credit never counts — and the add's
// delta is applied to the row as it stands when it commits.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"termproto/internal/db/lock"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/proto"
)

// OpKind is a transaction operation type.
type OpKind uint8

// Operation kinds.
const (
	OpPut    OpKind = iota + 1 // set key to value
	OpDelete                   // remove key
	OpAdd                      // add Delta to the integer at key; vote no if the result would be negative
	OpEpoch                    // placement-epoch record: with a value, a durable metadata write; without, a bare marker
)

// MetaPrefix is the reserved key range for cluster metadata (placement
// epochs). Meta keys are hosted by every site regardless of the
// placement predicate, are never deleted by anti-entropy catch-up, and
// are excluded from replica-convergence checks — each site's meta range
// reflects what it has durably learned, which can legitimately trail
// its peers across a partition.
const MetaPrefix = "\x00"

// IsMetaKey reports whether key lies in the reserved metadata range.
func IsMetaKey(key string) bool {
	return len(key) > 0 && key[0] == MetaPrefix[0]
}

// Op is one operation in a transaction body.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
	Delta int64
}

// EncodeOps serializes a transaction body for MsgXact payloads.
func EncodeOps(ops []Op) []byte {
	var out []byte
	out = binary.BigEndian.AppendUint32(out, uint32(len(ops)))
	for _, op := range ops {
		out = append(out, byte(op.Kind))
		out = binary.BigEndian.AppendUint32(out, uint32(len(op.Key)))
		out = append(out, op.Key...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(op.Value)))
		out = append(out, op.Value...)
		out = binary.BigEndian.AppendUint64(out, uint64(op.Delta))
	}
	return out
}

// ErrBadPayload reports an undecodable transaction body.
var ErrBadPayload = errors.New("engine: bad payload")

// minOpLen is the wire size of an op with an empty key and value:
// kind(1) + key len(4) + value len(4) + delta(8).
const minOpLen = 17

// DecodeOps parses a transaction body. It never panics on arbitrary
// input: counts and lengths are validated in 64-bit arithmetic before any
// allocation or slice, so hostile payloads return ErrBadPayload instead
// of overflowing or over-allocating.
func DecodeOps(payload []byte) ([]Op, error) {
	if len(payload) < 4 {
		return nil, ErrBadPayload
	}
	n := binary.BigEndian.Uint32(payload[0:4])
	payload = payload[4:]
	if uint64(n)*minOpLen > uint64(len(payload)) {
		return nil, ErrBadPayload
	}
	ops := make([]Op, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(payload) < 5 {
			return nil, ErrBadPayload
		}
		op := Op{Kind: OpKind(payload[0])}
		kl := binary.BigEndian.Uint32(payload[1:5])
		payload = payload[5:]
		if uint64(len(payload)) < uint64(kl)+4 {
			return nil, ErrBadPayload
		}
		op.Key = string(payload[:kl])
		payload = payload[kl:]
		vl := binary.BigEndian.Uint32(payload[0:4])
		payload = payload[4:]
		if uint64(len(payload)) < uint64(vl)+8 {
			return nil, ErrBadPayload
		}
		if vl > 0 {
			op.Value = append([]byte(nil), payload[:vl]...)
		}
		payload = payload[vl:]
		op.Delta = int64(binary.BigEndian.Uint64(payload[0:8]))
		payload = payload[8:]
		ops = append(ops, op)
	}
	return ops, nil
}

// EncodeInt renders an int64 as a stored value.
func EncodeInt(v int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(v))
}

// DecodeInt parses a stored integer value; missing/short values read as 0.
func DecodeInt(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// write is one buffered update: an absolute value (recovery replay is
// idempotent; value nil means delete), or for an add-mode key a delta
// applied to the row at commit.
type write struct {
	key   string
	value []byte
	add   bool
	delta int64
}

// record is w's log record in id's prepared fragment.
func (w write) record(id uint64) wal.Record {
	if w.add {
		return wal.Record{Type: wal.RecAdd, TID: id, Key: []byte(w.key), Value: EncodeInt(w.delta)}
	}
	return wal.Record{Type: wal.RecUpdate, TID: id, Key: []byte(w.key), Value: w.value}
}

// writeOf is the write a fragment's update record logged.
func writeOf(r wal.Record) write {
	if r.Type == wal.RecAdd {
		return write{key: string(r.Key), add: true, delta: DecodeInt(r.Value)}
	}
	return write{key: string(r.Key), value: r.Value}
}

type pendingTxn struct {
	writes []write
	keys   []string
	// meta is the begin record's opaque recovery metadata (the participant
	// roster); a checkpoint re-logs it so an in-doubt transaction keeps its
	// roster across log compaction.
	meta []byte
	// staged marks a fragment StageAt built and Force has not yet logged:
	// locks held, nothing durable.
	staged bool
}

// reserved is what p holds back of an add-mode key for the escrow guard:
// its net delta there when that is a debit, else 0. A nil p — the
// transaction StageAt is still building — reserves nothing yet.
func (p *pendingTxn) reserved(key string) int64 {
	var net int64
	if p != nil {
		for _, w := range p.writes {
			if w.add && w.key == key {
				net += w.delta
			}
		}
	}
	return min(net, 0)
}

// Options configures nothing: the log has one append path. It and
// NewWith stay only because bench/ compiles against them (ROADMAP 10b).
type Options struct {
	WAL wal.Options
}

// Engine is one site's database.
type Engine struct {
	mu      sync.Mutex
	name    string
	rows    map[string][]byte // committed state; apply stores private copies
	log     *wal.Log
	locks   *lock.Manager
	pending map[uint64]*pendingTxn
	// decided caches this site's durable decisions (every decision is
	// WAL-forced before it lands here), so recovery inquiries from
	// restarting peers can be answered without rescanning the log.
	decided map[uint64]proto.Outcome
	// hosts optionally restricts execution to the keys placed at this
	// site; nil hosts everything (full replication).
	hosts func(key string) bool
	// wound, when set, is asked whether a conflicting lock's holder may be
	// aborted in favour of tid (see SetWound).
	wound func(holder, tid uint64) bool

	// Observability (nil = off): per-shard decision, lock-failure and
	// wound counters, resolved against the key→shard mapper below.
	// Counts are per-replica decisions — a transaction committing at three
	// replicas of shard 2 adds three to shard 2's commit counter.
	obsDB   *obs.DB
	shardOf func(key string) int

	voteNo, voteYes, commits, aborts uint64
}

// SetMetrics wires the engine (and its WAL and lock manager) into a
// metrics registry. shardOf maps a key to its shard index for the
// per-shard labels; nil attributes everything to shard 0 (full
// replication). Call before traffic; a nil registry disables.
func (e *Engine) SetMetrics(r *obs.Registry, shardOf func(key string) int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.obsDB = obs.NewDB(r)
	e.shardOf = shardOf
	e.log.SetMetrics(r)
	e.observeLockFailures()
}

// observeLockFailures points the lock manager's fail observer at the
// per-shard lock-failure counter (nil when metrics are off): the lock
// manager reports the failing key, the engine resolves it to a shard. The
// observer runs outside the lock-table mutex (under e.mu on the execute
// path), and the handles are allocation-free. Called with e.mu held, for
// every lock manager the engine creates.
func (e *Engine) observeLockFailures() {
	if e.obsDB == nil {
		e.locks.SetFailObserver(nil)
		return
	}
	e.locks.SetFailObserver(e.lockFailed)
}

// lockFailed counts a conflict on key: a refused lock, or an escrow
// shortfall pending debits cause.
func (e *Engine) lockFailed(key string) {
	if e.obsDB != nil {
		e.obsDB.LockFailures.At(e.shardFor(key)).Inc()
	}
}

// shardFor maps a key to its shard label index (0 when unsharded; meta
// keys also land at 0 — they are placement-global).
func (e *Engine) shardFor(key string) int {
	if e.shardOf == nil || IsMetaKey(key) {
		return 0
	}
	return e.shardOf(key)
}

// txnShard resolves a pending transaction's shard label from its first
// locked key (a cross-shard transaction is attributed to its first
// shard — decision counters are per replica decision, not per shard
// touched).
func (e *Engine) txnShard(p *pendingTxn) int {
	if len(p.keys) == 0 {
		return 0
	}
	return e.shardFor(p.keys[0])
}

// New builds an engine logging to the given store.
func New(name string, store wal.Store) *Engine {
	return &Engine{
		name:    name,
		rows:    make(map[string][]byte),
		log:     wal.New(store),
		locks:   lock.New(),
		pending: make(map[uint64]*pendingTxn),
		decided: make(map[uint64]proto.Outcome),
	}
}

// NewWith is New. Kept for bench/ only (ROADMAP 10b).
func NewWith(name string, store wal.Store, _ Options) *Engine { return New(name, store) }

// Name returns the engine's label.
func (e *Engine) Name() string { return e.name }

// SetPlacement installs the site's key-placement predicate: a partial
// replica executes only the ops whose keys it hosts (no lock, no write,
// no vote input for foreign keys) while still voting on its own part of a
// cross-shard transaction. Nil restores full replication.
func (e *Engine) SetPlacement(hosts func(key string) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hosts = hosts
}

// SetWound installs the wound rule: when StageAt for tid meets a key that
// conflicting holders keep from it, wound(holder, tid) is asked for each,
// and on true the engine aborts that holder durably — its abort record
// forced, its decision cached, its locks released. Once every one is gone
// tid takes the key; a conflict left standing is a no vote, as without a
// rule. wound runs under the engine's mutex and must not call back into
// the engine; nil restores pure no-wait.
func (e *Engine) SetWound(wound func(holder, tid uint64) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wound = wound
}

// ExecuteAt is partial execution: decode the body, take its locks, resolve
// updates against the current state, force Begin/Update/Prepared records —
// the begin record carrying the participant roster sites, so a site
// restarting with this transaction in doubt knows whom to ask for the
// decision from its own log — and return the vote. Any failure — undecodable body, lock
// conflict, guard violation, or a log that did not become durable — votes
// no (unilateral abort) and releases everything. It is StageAt then Force:
// a yes never precedes its force.
func (e *Engine) ExecuteAt(tid proto.TxnID, payload []byte, sites []proto.SiteID) bool {
	return e.StageAt(tid, payload, sites) && e.Force(tid)
}

// StageAt is the first half of ExecuteAt, everything short of the log:
// decode, no-wait locks in the modes the body picks (see modes), updates
// resolved against the current state or, on an add-mode key, admitted by
// the escrow guard, and the begin/update/prepared fragment kept in
// memory. False is a no vote, final as in ExecuteAt. True is not yet a
// vote: the caller owes a Force before it acts on a yes — a master may
// send its xact in between (an xact asserts nothing about its sender), but
// no prepare, no decision and no counted vote. Commit on a staged
// transaction logs fragment and decision in one append; Abort drops the
// fragment unlogged.
func (e *Engine) StageAt(tid proto.TxnID, payload []byte, sites []proto.SiteID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := uint64(tid)
	ops, err := DecodeOps(payload)
	if err != nil || len(ops) == 0 {
		e.voteNo++
		return false
	}
	p := &pendingTxn{meta: encodeSites(sites), staged: true}
	// Stage updates against a scratch view so multi-op bodies see their
	// own earlier writes; sums are the body's running adds per add-mode key.
	scratch := make(map[string][]byte)
	get := func(key string) []byte {
		if v, ok := scratch[key]; ok {
			return v
		}
		return e.rows[key]
	}
	modes, sums := e.modes(ops), make(map[string]int64)
	for _, op := range ops {
		if !e.lockable(op) {
			continue
		}
		mode := modes[op.Key]
		if mode == lock.Add {
			sums[op.Key] += op.Delta
		}
		e.woundHolders(id, op.Key, e.conflicts(id, op.Key, mode, sums[op.Key]))
		if !e.locks.TryAcquire(id, op.Key, mode) {
			return e.refuse(id)
		}
		p.keys = append(p.keys, op.Key)
		switch op.Kind {
		case OpPut, OpEpoch:
			scratch[op.Key] = op.Value
			p.writes = append(p.writes, write{key: op.Key, value: op.Value})
		case OpDelete:
			scratch[op.Key] = nil
			p.writes = append(p.writes, write{key: op.Key})
		case OpAdd:
			if mode == lock.Add {
				if debtors, short := e.escrow(id, op.Key, sums[op.Key]); short || debtors != nil {
					if !short {
						e.lockFailed(op.Key)
					}
					return e.refuse(id)
				}
				p.writes = append(p.writes, write{key: op.Key, add: true, delta: op.Delta})
				continue
			}
			next := DecodeInt(get(op.Key)) + op.Delta
			if next < 0 {
				return e.refuse(id) // insufficient funds guard
			}
			nv := EncodeInt(next)
			scratch[op.Key] = nv
			p.writes = append(p.writes, write{key: op.Key, value: nv})
		default:
			return e.refuse(id)
		}
	}
	e.pending[id] = p
	return true
}

// lockable reports whether StageAt locks op's key at this site. A legacy
// bare epoch marker takes no lock and writes nothing: it is just a durable
// decision. A foreign key is for another shard's replicas. Meta keys
// (placement epochs) are hosted everywhere: every participant must durably
// record the new assignment in its own WAL, or it could not recover its
// placement history alone. Called with e.mu held.
func (e *Engine) lockable(op Op) bool {
	if op.Kind == OpEpoch && len(op.Value) == 0 {
		return false
	}
	return e.hosts == nil || IsMetaKey(op.Key) || e.hosts(op.Key)
}

// modes picks each lockable key's lock mode from the whole body: Add for
// a key only OpAdds touch, Exclusive for a key any other op touches.
// Called with e.mu held.
func (e *Engine) modes(ops []Op) map[string]lock.Mode {
	m := make(map[string]lock.Mode, len(ops))
	for _, op := range ops {
		if !e.lockable(op) {
			continue
		}
		if op.Kind == OpAdd && m[op.Key] != lock.Exclusive {
			m[op.Key] = lock.Add
		} else {
			m[op.Key] = lock.Exclusive
		}
	}
	return m
}

// conflicts names the transactions that keep id from staging an op on key
// in mode: every other holder when either side is exclusive; on an
// add-mode key, the pending debtors the escrow guard would refuse sum
// (id's running adds there) for. Called with e.mu held.
func (e *Engine) conflicts(id uint64, key string, mode lock.Mode, sum int64) []uint64 {
	holders, held := e.locks.Holders(key)
	if mode == lock.Add && held != lock.Exclusive {
		debtors, _ := e.escrow(id, key, sum)
		return debtors
	}
	return slices.DeleteFunc(holders, func(h uint64) bool { return h == id })
}

// escrow is the guard on an add-mode key: it requires committed value +
// every other holder's pending debits + sum (id's running adds) ≥ 0.
// short is a shortfall against the committed value alone — insufficient
// funds; otherwise debtors, when not nil, are the holders whose pending
// debits cause one — a conflict. Called with e.mu held.
func (e *Engine) escrow(id uint64, key string, sum int64) (debtors []uint64, short bool) {
	avail := DecodeInt(e.rows[key]) + sum
	if avail < 0 {
		return nil, true
	}
	holders, _ := e.locks.Holders(key)
	for _, h := range holders {
		if r := e.pending[h].reserved(key); h != id && r < 0 {
			avail += r
			debtors = append(debtors, h)
		}
	}
	if avail >= 0 {
		return nil, false
	}
	return debtors, false
}

// Blocker reports, for the first key StageAt would lock for tid's body
// that other transactions keep from it, every one of them (see
// conflicts); nil when none does. It takes nothing and changes nothing:
// the site table asks it before it hands a transaction on, and parks the
// transaction while a holder is reported. An undecodable body has no
// blocker; StageAt refuses it.
func (e *Engine) Blocker(tid proto.TxnID, payload []byte) []uint64 {
	ops, err := DecodeOps(payload)
	if err != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	modes, sums := e.modes(ops), make(map[string]int64)
	for _, op := range ops {
		if !e.lockable(op) {
			continue
		}
		if modes[op.Key] == lock.Add {
			sums[op.Key] += op.Delta
		}
		if c := e.conflicts(uint64(tid), op.Key, modes[op.Key], sums[op.Key]); len(c) > 0 {
			return c
		}
	}
	return nil
}

// woundHolders aborts, of the holders keeping key from id, each the wound
// rule lets id take. Called with e.mu held.
func (e *Engine) woundHolders(id uint64, key string, holders []uint64) {
	if e.wound == nil {
		return
	}
	for _, h := range holders {
		if !e.wound(h, id) {
			continue
		}
		e.abort(h)
		if e.obsDB != nil {
			e.obsDB.LockWounds.At(e.shardFor(key)).Inc()
		}
	}
}

// refuse is the unilateral abort behind a no vote: locks released, the
// abort logged for recovery inquiries. Called with e.mu held; returns the
// vote.
func (e *Engine) refuse(id uint64) bool {
	e.locks.Release(id)
	e.log.Append(wal.Record{Type: wal.RecAbort, TID: id}) //nolint:errcheck
	e.decided[id] = proto.Abort
	e.voteNo++
	return false
}

// fragment is the transaction's begin/update/prepared log fragment.
func (p *pendingTxn) fragment(id uint64) []wal.Record {
	recs := make([]wal.Record, 0, len(p.writes)+3)
	recs = append(recs, wal.Record{Type: wal.RecBegin, TID: id, Value: p.meta})
	for _, w := range p.writes {
		recs = append(recs, w.record(id))
	}
	return append(recs, wal.Record{Type: wal.RecPrepared, TID: id})
}

// Force is the second half of ExecuteAt: the staged fragment goes to the
// log as one WAL batch — a single store write and a single Sync instead of
// one fsync per record — and the result is the vote. A failed force votes
// no and releases everything. With nothing staged for tid (never staged,
// or decided since) there is nothing to lose and Force reports true.
func (e *Engine) Force(tid proto.TxnID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := uint64(tid)
	p := e.pending[id]
	if p == nil || !p.staged {
		return true
	}
	if err := e.log.AppendBatch(p.fragment(id)); err != nil {
		delete(e.pending, id)
		return e.refuse(id)
	}
	p.staged = false
	e.voteYes++
	return true
}

// Commit is the site applying a commit decision: force the commit record, apply
// the buffered updates (an add's delta to the row as it now stands),
// release locks. A decision for a transaction that never prepared here is
// still logged (durably answerable by recovery inquiries); duplicate
// decisions are no-ops. A transaction staged and not yet forced (a
// single-site roster decides inside its own Start) gets its fragment and
// its commit record in one append, one Sync.
func (e *Engine) Commit(tid proto.TxnID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := uint64(tid)
	if _, done := e.decided[id]; done {
		return
	}
	p, ok := e.pending[id]
	var recs []wal.Record
	if ok && p.staged {
		recs = p.fragment(id)
		e.voteYes++
	}
	e.log.AppendBatch(append(recs, wal.Record{Type: wal.RecCommit, TID: id})) //nolint:errcheck // decisions for unknown txns are best-effort
	e.decided[id] = proto.Commit
	if !ok {
		return // never prepared here: the decision alone is recorded
	}
	for _, w := range p.writes {
		e.applyWrite(w)
	}
	delete(e.pending, id)
	e.locks.Release(id)
	e.commits++
	if e.obsDB != nil {
		e.obsDB.Commits.At(e.txnShard(p)).Inc()
	}
}

// Abort is the site applying an abort decision: force the abort record, discard
// buffered updates (a staged fragment with them, never logged), release
// locks.
func (e *Engine) Abort(tid proto.TxnID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abort(uint64(tid))
}

// abort is Abort with e.mu held.
func (e *Engine) abort(id uint64) {
	if _, done := e.decided[id]; done {
		return
	}
	e.log.Append(wal.Record{Type: wal.RecAbort, TID: id}) //nolint:errcheck // decisions for unknown txns are best-effort
	e.decided[id] = proto.Abort
	p, ok := e.pending[id]
	if !ok {
		return
	}
	delete(e.pending, id)
	e.locks.Release(id)
	e.aborts++
	if e.obsDB != nil {
		e.obsDB.Aborts.At(e.txnShard(p)).Inc()
	}
}

// Outcome reports this site's durable decision on a transaction — the
// answer it gives a restarting peer's recovery inquiry. ok is false while
// the transaction is undecided (or unknown) here.
func (e *Engine) Outcome(tid uint64) (proto.Outcome, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.decided[tid]
	return o, ok
}

// Get reads a committed value.
func (e *Engine) Get(key string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.rows[key]
	return v, ok
}

// GetInt reads a committed integer value (0 if absent).
func (e *Engine) GetInt(key string) int64 {
	v, _ := e.Get(key)
	return DecodeInt(v)
}

// Put writes a committed value outside any transaction (loading fixtures).
// The write is logged as a RecApply record, so fixtures survive a restart
// the same way committed transactions do.
func (e *Engine) Put(key string, value []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.Append(wal.Record{Type: wal.RecApply, Key: []byte(key), Value: value}) //nolint:errcheck
	e.apply(key, value)
}

// applyBatch logs values[k] for each of keys as RecApply records in one
// append and applies them only once it is durable; on error nothing is
// applied. A nil value deletes. Called with e.mu held.
func (e *Engine) applyBatch(keys []string, values map[string][]byte) error {
	recs := make([]wal.Record, len(keys))
	for i, k := range keys {
		recs[i] = wal.Record{Type: wal.RecApply, Key: []byte(k), Value: values[k]}
	}
	if err := e.log.AppendBatch(recs); err != nil {
		return err
	}
	for _, k := range keys {
		e.apply(k, values[k])
	}
	return nil
}

// apply sets one committed row; a nil value deletes it. The row keeps its
// own copy of value.
func (e *Engine) apply(key string, value []byte) {
	if value == nil {
		delete(e.rows, key)
	} else {
		e.rows[key] = append([]byte(nil), value...)
	}
}

// applyWrite applies one committed update: an absolute value, or an
// add's delta to the row as it stands.
func (e *Engine) applyWrite(w write) {
	if w.add {
		e.apply(w.key, EncodeInt(DecodeInt(e.rows[w.key])+w.delta))
		return
	}
	e.apply(w.key, w.value)
}

// PutInt writes a committed integer value outside any transaction.
func (e *Engine) PutInt(key string, v int64) { e.Put(key, EncodeInt(v)) }

// Len returns the number of committed keys.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rows)
}

// Snapshot returns a copy of every committed key/value pair — the input to
// replica-consistency checks across sites.
func (e *Engine) Snapshot() map[string][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *Engine) snapshotLocked() map[string][]byte {
	out := make(map[string][]byte, len(e.rows))
	for k, v := range e.rows {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// StableSnapshot returns the committed state together with the set of
// keys currently held by in-flight (prepared-but-undecided) transactions.
// For those keys the committed value is not authoritative — the pending
// decision may supersede it — so an anti-entropy donor must flag them and
// the puller must leave them alone rather than adopt (or delete to match)
// a value that is still in flux.
func (e *Engine) StableSnapshot() (snap map[string][]byte, unstable map[string]bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	unstable = make(map[string]bool)
	for _, p := range e.pending {
		for _, k := range p.keys {
			unstable[k] = true
		}
	}
	return e.snapshotLocked(), unstable
}

// Locked reports whether key is currently locked by any transaction — the
// paper's "data inaccessible to other transactions" condition.
func (e *Engine) Locked(key string) bool {
	holders, _ := e.locks.Holders(key)
	return len(holders) > 0
}

// InDoubt lists transactions prepared here but undecided — blocked
// transactions holding locks.
func (e *Engine) InDoubt() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, 0, len(e.pending))
	for id := range e.pending {
		out = append(out, id)
	}
	return out
}

// Stats returns cumulative vote/decision counters.
func (e *Engine) Stats() (voteYes, voteNo, commits, aborts uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.voteYes, e.voteNo, e.commits, e.aborts
}

// WALStats returns the log's durability counters (records, fsyncs). The
// log locks internally; e.mu is not needed.
func (e *Engine) WALStats() wal.Stats { return e.log.Stats() }

// LogContents returns the engine's write-ahead log as it stands:
// what the site durably holds, which Recover rebuilds an engine from.
func (e *Engine) LogContents() ([]byte, error) { return e.log.Contents() }

// CatchUp reconciles this site's committed state with a replica snapshot
// — the anti-entropy pull a recovering site runs to pick up commits it
// missed while down. Only keys inside include (nil = all) and hosted
// here are touched. Two classes of keys are left alone: keys locked
// locally by still-pending (unresolved in-doubt) transactions, whose
// fate is the termination protocol's to decide, and keys in the donor's
// unstable set (locked by in-flight transactions at the donor), whose
// donor-side value a pending decision may supersede — adopting it could
// roll back a commit this site already holds. Extra local keys inside
// the include set that the donor does not have are deleted. Meta keys
// (the reserved MetaPrefix range) follow adopt-only semantics: a donor's
// record this site lacks is adopted regardless of include, but local
// meta records are never overwritten or deleted — epoch records are
// immutable once written, and a donor knowing fewer epochs must not
// erase this site's history. The changes are logged in key order as
// RecApply records in one append — one fsync — and applied only once it
// is durable, so the reconciliation survives a further crash; on a log
// error nothing is applied and the error is returned. Returns the number
// of keys changed; the apply is idempotent.
func (e *Engine) CatchUp(snap map[string][]byte, unstable map[string]bool, include func(key string) bool) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in := func(key string) bool {
		if unstable[key] {
			return false
		}
		if IsMetaKey(key) {
			return true // meta records replicate to every site
		}
		if e.hosts != nil && !e.hosts(key) {
			return false
		}
		return include == nil || include(key)
	}
	var keys []string
	values := make(map[string][]byte)
	for k, v := range snap {
		if !in(k) || e.Locked(k) {
			continue
		}
		cur, ok := e.rows[k]
		if ok && (IsMetaKey(k) || string(cur) == string(v)) {
			continue // meta records are immutable: adopt only when absent
		}
		keys = append(keys, k)
		values[k] = append([]byte(nil), v...)
	}
	// Keys committed here that the donor does not have were deleted while
	// this site was down (no entry in values: a delete). Meta records are
	// exempt: absence at the donor means the donor's history is shorter,
	// not that ours was deleted.
	for key := range e.rows {
		if _, ok := snap[key]; !ok && !IsMetaKey(key) && in(key) && !e.Locked(key) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if err := e.applyBatch(keys, values); err != nil {
		return 0, fmt.Errorf("engine %s: log catch-up of %d keys: %w", e.name, len(keys), err)
	}
	return len(keys), nil
}

// InDoubt describes one prepared-but-undecided transaction surfaced by
// recovery: its ID and — when ExecuteAt logged one — the participant
// roster to interrogate for the decision.
type InDoubt struct {
	TID   uint64
	Sites []proto.SiteID
}

// RecoveryInfo summarizes a log replay.
type RecoveryInfo struct {
	// Replayed counts committed transactions redone from the log.
	Replayed int
	// Applied counts RecApply records redone (fixtures, prior catch-ups).
	Applied int
	// InDoubt lists prepared-but-undecided transactions, ascending by TID,
	// with locks re-taken (adds in add mode, with their reservations) —
	// they are waiting for the termination protocol.
	InDoubt []InDoubt
}

// RecoverInPlace models a process restart on this engine: all in-memory
// state — rows, locks, buffered updates, decision cache — is discarded
// and rebuilt from the stable log alone. Committed transactions and
// directly-applied writes are redone in log order (values are absolute,
// so replay is idempotent; an add is redone at its fragment's position,
// which is sound because no absolute write to a key is logged while an
// add holds it), aborted and unprepared transactions are discarded, and
// prepared-but-undecided ones come back as in-doubt with their locks
// re-taken (adds in add mode, with their reservations). The placement predicate and cumulative counters
// survive (they belong to the site, not the process image).
func (e *Engine) RecoverInPlace() (RecoveryInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	records, err := e.log.ScanStore()
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("engine %s: recovery scan: %w", e.name, err)
	}
	e.rows = make(map[string][]byte)
	e.locks = lock.New()
	e.observeLockFailures()
	e.pending = make(map[uint64]*pendingTxn)
	e.decided = make(map[uint64]proto.Outcome)

	var info RecoveryInfo
	byTxn := wal.Analyze(records)
	for tid, t := range byTxn {
		switch t.Decided {
		case wal.RecCommit:
			e.decided[tid] = proto.Commit
		case wal.RecAbort:
			e.decided[tid] = proto.Abort
		}
	}
	// Redo committed updates and direct applies in original log order.
	for _, r := range records {
		switch r.Type {
		case wal.RecApply:
			info.Applied++
		case wal.RecUpdate, wal.RecAdd:
			if byTxn[r.TID].Decided != wal.RecCommit {
				continue
			}
		default:
			continue
		}
		e.applyWrite(writeOf(r))
	}
	// Reconstruct in-doubt transactions.
	for tid, t := range byTxn {
		switch {
		case t.Decided == wal.RecCommit:
			info.Replayed++
		case !t.Prepared || t.Decided != 0:
			continue
		default:
			p := &pendingTxn{meta: t.BeginMeta}
			for _, u := range t.Updates {
				w := writeOf(u)
				mode := lock.Exclusive
				if w.add {
					mode = lock.Add
				}
				e.locks.TryAcquire(tid, w.key, mode)
				p.keys = append(p.keys, w.key)
				p.writes = append(p.writes, w)
			}
			e.pending[tid] = p
			info.InDoubt = append(info.InDoubt, InDoubt{TID: tid, Sites: decodeSites(t.BeginMeta)})
		}
	}
	sort.Slice(info.InDoubt, func(i, j int) bool { return info.InDoubt[i].TID < info.InDoubt[j].TID })
	return info, nil
}

// Checkpoint compacts the log: the history accumulated so far is replaced
// by an equivalent fragment rebuilt from the engine's current state — a
// checkpoint marker, one RecApply per committed key, one bare decision
// record per cached durable decision (so recovery inquiries from peers
// stay answerable across the compaction), and one begin/updates/prepared
// fragment per still-in-doubt transaction (roster metadata included).
// Replaying the compacted log reproduces exactly the state replaying the
// full history would have. The log is swapped in one wal.Store.Replace, so
// a crash or a failed write leaves either the whole old history or the
// whole checkpoint.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	recs := []wal.Record{{Type: wal.RecCheckpoint}}
	for _, k := range slices.Sorted(maps.Keys(e.rows)) {
		recs = append(recs, wal.Record{Type: wal.RecApply, Key: []byte(k), Value: e.rows[k]})
	}
	decided := make([]uint64, 0, len(e.decided))
	for tid := range e.decided {
		decided = append(decided, tid)
	}
	sort.Slice(decided, func(i, j int) bool { return decided[i] < decided[j] })
	for _, tid := range decided {
		t := wal.RecAbort
		if e.decided[tid] == proto.Commit {
			t = wal.RecCommit
		}
		recs = append(recs, wal.Record{Type: t, TID: tid})
	}
	pend := make([]uint64, 0, len(e.pending))
	for tid := range e.pending {
		pend = append(pend, tid)
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i] < pend[j] })
	for _, tid := range pend {
		if p := e.pending[tid]; !p.staged { // a staged fragment is not log history yet
			recs = append(recs, p.fragment(tid)...)
		}
	}
	if err := e.log.Replace(recs); err != nil {
		return fmt.Errorf("engine %s: checkpoint: %w", e.name, err)
	}
	return nil
}

// Recover rebuilds an engine from stable-log contents; see RecoverInPlace
// for the replay semantics. It returns the in-doubt transaction IDs.
func Recover(name string, store wal.Store) (*Engine, []uint64, error) {
	e := New(name, store)
	info, err := e.RecoverInPlace()
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint64, 0, len(info.InDoubt))
	for _, d := range info.InDoubt {
		ids = append(ids, d.TID)
	}
	return e, ids, nil
}

// encodeSites renders a participant roster for the begin record:
// u16 count, then u32 per site.
func encodeSites(sites []proto.SiteID) []byte {
	if len(sites) == 0 {
		return nil
	}
	out := make([]byte, 0, 2+4*len(sites))
	out = binary.BigEndian.AppendUint16(out, uint16(len(sites)))
	for _, id := range sites {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	return out
}

// decodeSites parses a begin record's roster; malformed or absent
// metadata decodes to nil (the caller falls back to asking every site).
func decodeSites(meta []byte) []proto.SiteID {
	if len(meta) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(meta[0:2]))
	if n == 0 || len(meta) != 2+4*n {
		return nil
	}
	out := make([]proto.SiteID, n)
	for i := 0; i < n; i++ {
		out[i] = proto.SiteID(binary.BigEndian.Uint32(meta[2+4*i:]))
	}
	return out
}
