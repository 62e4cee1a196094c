// Package lock is the engine's row-lock table: one exclusive holder per
// key, taken without waiting.
//
// The engine takes its locks only with TryAcquire: a conflict never waits
// here, it is a no vote — unless the engine's wound rule aborts the key's
// Holder, a younger transaction its own site still coordinates, and takes
// the lock. A transaction that would meet a held key waits before it asks
// for any lock, in the site table (internal/site), holding none: no
// waits-for cycle can form, so the table needs no queue and no deadlock
// detection.
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

// Manager is a lock table. The zero value is not usable; call New. Its
// mutex lets a reader such as Holders run beside the engine's own calls.
type Manager struct {
	mu sync.Mutex
	// locks maps each held key to its holder; a free key has no entry.
	locks map[string]uint64
	held  map[uint64][]string
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
		locks: make(map[string]uint64),
		held:  make(map[uint64][]string),
	}
}

// TryAcquire grants key to tid when it is free or already tid's, and
// reports success. On conflict nothing is recorded — the unilateral-abort
// path the commit protocols use when voting. The mode is always Exclusive.
func (m *Manager) TryAcquire(tid uint64, key string, _ Mode) bool {
	m.mu.Lock()
	h, held := m.locks[key]
	ok := !held || h == tid
	if !held {
		m.locks[key] = tid
		m.held[tid] = append(m.held[tid], key)
	}
	m.mu.Unlock()
	if !ok && m.onFail != nil {
		m.onFail(key)
	}
	return ok
}

// Release drops every lock tid holds.
func (m *Manager) Release(tid uint64) {
	m.mu.Lock()
	for _, key := range m.held[tid] {
		delete(m.locks, key)
	}
	delete(m.held, tid)
	m.mu.Unlock()
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
	tid, ok = m.locks[key]
	return tid, ok
}
