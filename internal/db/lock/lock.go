// Package lock is the engine's row-lock table, taken without waiting. A key
// is held in one of two modes: Exclusive, by one transaction, or Add, by
// any number of transactions whose only use of the key is to add to it —
// increments commute, so they need not exclude each other. What they do
// share, the no-overdraft guard, is the engine's escrow check, not a lock
// mode.
//
// The engine takes its locks only with TryAcquire: a conflict never waits
// here, it is a no vote — unless the engine's wound rule aborts the
// conflicting holders, younger transactions its own site still
// coordinates, and takes the lock. A transaction that would meet a held
// key waits before it asks for any lock, in the site table
// (internal/site), holding none: no waits-for cycle can form, so the table
// needs no queue and no deadlock detection.
//
// Its role in the reproduction is the paper's motivation made concrete:
// "the locks acquired by the blocked transaction cannot be relinquished,
// rendering those data inaccessible to other transactions" (§2). The
// banking example and experiment E15 measure exactly that — a commit
// protocol that blocks under a partition leaves rows locked, and later
// transactions on those rows fail.
package lock

import (
	"slices"
	"sync"
)

// Mode is a lock mode. Add is compatible with Add; Exclusive conflicts
// with every other holder.
type Mode uint8

// Lock modes. TryAcquire reads any mode other than Add as Exclusive.
const (
	Exclusive Mode = 1 // one holder: the transaction writes the key
	Add       Mode = 2 // shared with other adders: the transaction only adds to the key
)

// entry is one held key: its mode and every holder.
type entry struct {
	mode    Mode
	holders []uint64
}

// Manager is a lock table. The zero value is not usable; call New. Its
// mutex lets a reader such as Holders run beside the engine's own calls.
type Manager struct {
	mu sync.Mutex
	// locks maps each held key to its holders; a free key has no entry.
	locks map[string]*entry
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
		locks: make(map[string]*entry),
		held:  make(map[uint64][]string),
	}
}

// TryAcquire grants key to tid in mode when it is free or held in Add mode
// and mode is Add, and reports success; a holder asking again succeeds
// unless it holds Add and asks for Exclusive. On conflict nothing is
// recorded — the unilateral-abort path the commit protocols use when
// voting.
func (m *Manager) TryAcquire(tid uint64, key string, mode Mode) bool {
	if mode != Add {
		mode = Exclusive
	}
	m.mu.Lock()
	en, ok := m.locks[key], true
	switch {
	case en == nil:
		m.locks[key] = &entry{mode: mode, holders: []uint64{tid}}
		m.held[tid] = append(m.held[tid], key)
	case slices.Contains(en.holders, tid):
		ok = mode == en.mode || en.mode == Exclusive
	case mode == Add && en.mode == Add:
		en.holders = append(en.holders, tid)
		m.held[tid] = append(m.held[tid], key)
	default:
		ok = false
	}
	m.mu.Unlock()
	if !ok && m.onFail != nil {
		m.onFail(key)
	}
	return ok
}

// Release drops every lock tid holds; the other holders of an Add-mode
// key keep it.
func (m *Manager) Release(tid uint64) {
	m.mu.Lock()
	for _, key := range m.held[tid] {
		en := m.locks[key]
		if en.holders = slices.DeleteFunc(en.holders, func(h uint64) bool { return h == tid }); len(en.holders) == 0 {
			delete(m.locks, key)
		}
	}
	delete(m.held, tid)
	m.mu.Unlock()
}

// Holders returns every transaction that holds key, ascending, and the
// mode they hold it in; a free key has none and mode 0. The slice is the
// caller's.
func (m *Manager) Holders(key string) ([]uint64, Mode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	en := m.locks[key]
	if en == nil {
		return nil, 0
	}
	holders := slices.Clone(en.holders)
	slices.Sort(holders)
	return holders, en.mode
}
