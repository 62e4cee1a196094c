// Package lock is the engine's row-lock table: one exclusive holder per
// key, taken without waiting.
//
// The engine takes its locks only with TryAcquire: a conflict never waits,
// it is a no vote — unless the engine's wound rule aborts the key's
// Holder, a younger transaction its own site still coordinates, and takes
// the lock. Acquire and its FIFO queue of exclusive waiters stay until
// ROADMAP 14 measures whether a slave should wait, inside the delay bound,
// for a lock to free instead of voting no; no shipped code path calls
// them yet.
//
// Its role in the reproduction is the paper's motivation made concrete:
// "the locks acquired by the blocked transaction cannot be relinquished,
// rendering those data inaccessible to other transactions" (§2). The
// banking example and experiment E15 measure exactly that — a commit
// protocol that blocks under a partition leaves rows locked, and later
// transactions on those rows fail.
package lock

import "sync"

// Mode is a lock mode. Exclusive is the only one.
type Mode uint8

// Exclusive is the only lock mode: one holder per key.
const Exclusive Mode = 1

// Result reports the outcome of an Acquire.
type Result uint8

// Acquire outcomes.
const (
	Granted Result = iota + 1 // the lock is held on return
	Queued                    // the waiter was enqueued; grant runs later
)

type waiter struct {
	tid   uint64
	grant func()
}

// entry is a held key: its holder and the waiters queued behind it.
type entry struct {
	holder uint64
	queue  []waiter
}

// Manager is a lock table. The zero value is not usable; call New. Its
// mutex lets a reader such as Holders run beside the engine's own calls.
type Manager struct {
	mu sync.Mutex
	// locks holds an entry per held key; a free key has none.
	locks map[string]*entry
	held  map[uint64][]string
	// waitsOn[t] = key t is queued on ("" if none).
	waitsOn map[uint64]string
	// onFail, when set, observes each failed key (the engine resolves it
	// to a shard and bumps the per-shard counter). Set before traffic.
	onFail func(key string)
}

// SetFailObserver installs a callback invoked (outside the table lock)
// with the key of every failed TryAcquire. Call before traffic; nil
// disables.
func (m *Manager) SetFailObserver(fn func(key string)) { m.onFail = fn }

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[string]*entry),
		held:    make(map[uint64][]string),
		waitsOn: make(map[uint64]string),
	}
}

// TryAcquire attempts an immediate grant and reports success. On conflict
// nothing is enqueued — the unilateral-abort path the commit protocols use
// when voting. The mode is always Exclusive.
func (m *Manager) TryAcquire(tid uint64, key string, _ Mode) bool {
	m.mu.Lock()
	e := m.locks[key]
	ok := e == nil || e.holder == tid
	if e == nil {
		m.grant(tid, key)
	}
	m.mu.Unlock()
	if !ok && m.onFail != nil {
		m.onFail(key)
	}
	return ok
}

// Acquire grants key at once when it is free or already tid's, and
// otherwise queues tid behind the holder's earlier waiters; grant is
// invoked (outside the manager lock) when the queued request is granted,
// and may be nil for tests. Nothing detects a waits-for cycle, so a caller
// that waits must bound the wait with a deadline of its own and Release
// on expiry. The mode is always Exclusive.
func (m *Manager) Acquire(tid uint64, key string, _ Mode, grant func()) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[key]
	if e == nil {
		m.grant(tid, key)
		return Granted
	}
	if e.holder == tid {
		return Granted
	}
	e.queue = append(e.queue, waiter{tid: tid, grant: grant})
	m.waitsOn[tid] = key
	return Queued
}

// grant makes tid the holder of key, which must be free.
func (m *Manager) grant(tid uint64, key string) *entry {
	e := &entry{holder: tid}
	m.locks[key] = e
	m.held[tid] = append(m.held[tid], key)
	return e
}

// Release drops every lock tid holds and cancels its queued wait, then
// hands each freed key to its first waiter. Grant callbacks run after the
// manager lock is released.
func (m *Manager) Release(tid uint64) {
	m.mu.Lock()
	var grants []func()
	for _, key := range m.held[tid] {
		queue := m.locks[key].queue
		delete(m.locks, key)
		if len(queue) == 0 {
			continue
		}
		w := queue[0]
		delete(m.waitsOn, w.tid)
		m.grant(w.tid, key).queue = queue[1:]
		if w.grant != nil {
			grants = append(grants, w.grant)
		}
	}
	delete(m.held, tid)
	if wk, ok := m.waitsOn[tid]; ok {
		e := m.locks[wk]
		for i, w := range e.queue {
			if w.tid == tid {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		delete(m.waitsOn, tid)
	}
	m.mu.Unlock()
	for _, g := range grants {
		g()
	}
}

// Holders returns how many transactions hold key: 0 or 1.
func (m *Manager) Holders(key string) int {
	if _, ok := m.Holder(key); ok {
		return 1
	}
	return 0
}

// Holder returns the transaction that holds key; ok is false when key is
// free.
func (m *Manager) Holder(key string) (tid uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[key]
	if e == nil {
		return 0, false
	}
	return e.holder, true
}
