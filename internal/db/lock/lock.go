// Package lock implements a strict two-phase-locking lock manager with
// shared/exclusive row locks.
//
// The engine takes only exclusive locks, and only with TryAcquire: a
// conflict never waits, it is a no vote — unless the engine's wound rule
// aborts the key's Holder, a younger transaction its own site still
// coordinates, and takes the lock. Acquire's FIFO wait queues, lock
// upgrade and waits-for-graph deadlock detection are the rest of a
// general two-phase-locking table; no shipped code path waits.
//
// Its role in the reproduction is the paper's motivation made concrete:
// "the locks acquired by the blocked transaction cannot be relinquished,
// rendering those data inaccessible to other transactions" (§2). The
// banking example and experiment E15 measure exactly that — a commit
// protocol that blocks under a partition leaves rows locked, and later
// transactions on those rows fail.
package lock

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Result reports the outcome of an Acquire.
type Result uint8

// Acquire outcomes.
const (
	Granted  Result = iota + 1 // the lock is held on return
	Queued                     // the waiter was enqueued; grant runs later
	Deadlock                   // enqueueing would close a waits-for cycle
)

type waiter struct {
	tid   uint64
	mode  Mode
	grant func()
}

type entry struct {
	holders map[uint64]Mode
	queue   []waiter
}

// Manager is a lock table. The zero value is not usable; call New.
type Manager struct {
	mu sync.Mutex
	// locks holds an entry per key that is held or waited on; a key
	// neither held nor waited on has none.
	locks map[string]*entry
	held  map[uint64]map[string]Mode
	// waitsOn[t] = key t is queued on ("" if none).
	waitsOn map[uint64]string
	// fails counts TryAcquire conflicts and Acquire deadlock verdicts —
	// the immediate no-vote causes, surfaced per shard by the engine's
	// observability hook and in aggregate here.
	fails atomic.Uint64
	// onFail, when set, observes each failed key (the engine resolves it
	// to a shard and bumps the per-shard counter). Set before traffic.
	onFail func(key string)
}

// SetFailObserver installs a callback invoked (outside the table lock)
// with the key of every failed immediate acquisition. Call before
// traffic; nil disables.
func (m *Manager) SetFailObserver(fn func(key string)) { m.onFail = fn }

// Fails returns how many immediate acquisitions failed (TryAcquire
// conflicts and Acquire deadlock rejections).
func (m *Manager) Fails() uint64 { return m.fails.Load() }

// fail counts one failed acquisition and notifies the observer.
func (m *Manager) fail(key string) {
	m.fails.Add(1)
	if m.onFail != nil {
		m.onFail(key)
	}
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[string]*entry),
		held:    make(map[uint64]map[string]Mode),
		waitsOn: make(map[uint64]string),
	}
}

func compatible(have, want Mode) bool { return have == Shared && want == Shared }

// entryFor returns (creating) the lock entry.
func (m *Manager) entryFor(key string) *entry {
	e := m.locks[key]
	if e == nil {
		e = &entry{holders: make(map[uint64]Mode)}
		m.locks[key] = e
	}
	return e
}

// grantable reports whether tid can take key in mode right now, honouring
// current holders (upgrade-aware) and queue fairness.
func (m *Manager) grantable(e *entry, tid uint64, mode Mode) bool {
	for h, hm := range e.holders {
		if h == tid {
			continue // upgrade handled below
		}
		if !compatible(hm, mode) && !compatible(mode, hm) {
			return false
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	// FIFO fairness: a shared request must not overtake a queued
	// exclusive waiter.
	if mode == Shared {
		for _, w := range e.queue {
			if w.mode == Exclusive {
				return false
			}
		}
	}
	return true
}

// TryAcquire attempts an immediate grant and reports success. On conflict
// nothing is enqueued — the unilateral-abort path the commit protocols use
// when voting.
func (m *Manager) TryAcquire(tid uint64, key string, mode Mode) bool {
	m.mu.Lock()
	e := m.entryFor(key)
	if cur, ok := e.holders[tid]; ok && (cur == mode || cur == Exclusive) {
		m.mu.Unlock()
		return true // already held at sufficient strength
	}
	if !m.grantable(e, tid, mode) {
		m.mu.Unlock()
		m.fail(key)
		return false
	}
	m.grant(e, tid, key, mode)
	m.mu.Unlock()
	return true
}

// Acquire attempts a grant, enqueueing on conflict. grant is invoked
// (outside the manager lock) when a queued request is eventually granted;
// it may be nil for tests. Returns Deadlock — without enqueueing — if
// waiting would close a cycle in the waits-for graph.
func (m *Manager) Acquire(tid uint64, key string, mode Mode, grant func()) Result {
	m.mu.Lock()
	e := m.entryFor(key)
	if cur, ok := e.holders[tid]; ok && (cur == mode || cur == Exclusive) {
		m.mu.Unlock()
		return Granted
	}
	if m.grantable(e, tid, mode) {
		m.grant(e, tid, key, mode)
		m.mu.Unlock()
		return Granted
	}
	if m.wouldDeadlock(tid, key) {
		m.mu.Unlock()
		m.fail(key)
		return Deadlock
	}
	e.queue = append(e.queue, waiter{tid: tid, mode: mode, grant: grant})
	m.waitsOn[tid] = key
	m.mu.Unlock()
	return Queued
}

func (m *Manager) grant(e *entry, tid uint64, key string, mode Mode) {
	e.holders[tid] = mode
	hm := m.held[tid]
	if hm == nil {
		hm = make(map[string]Mode)
		m.held[tid] = hm
	}
	hm[key] = mode
}

// wouldDeadlock checks whether tid waiting on key closes a waits-for
// cycle: tid → holders(key) →* tid.
func (m *Manager) wouldDeadlock(tid uint64, key string) bool {
	seen := map[uint64]bool{}
	var reaches func(from uint64) bool
	reaches = func(from uint64) bool {
		if from == tid {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		wk, waiting := m.waitsOn[from]
		if !waiting {
			return false
		}
		for h := range m.locks[wk].holders {
			if h != from && reaches(h) {
				return true
			}
		}
		return false
	}
	for h := range m.locks[key].holders {
		if h != tid && reaches(h) {
			return true
		}
	}
	return false
}

// Release drops every lock tid holds and cancels its queued waits, then
// grants any now-compatible waiters in FIFO order. Grant callbacks run
// after the manager lock is released.
func (m *Manager) Release(tid uint64) {
	m.mu.Lock()
	var grants []func()
	for key := range m.held[tid] {
		e := m.locks[key]
		delete(e.holders, tid)
		grants = append(grants, m.pump(e, key)...)
		m.forget(e, key)
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
		m.forget(e, wk)
	}
	m.mu.Unlock()
	for _, g := range grants {
		g()
	}
}

// forget drops key's entry once nobody holds or waits on it.
func (m *Manager) forget(e *entry, key string) {
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.locks, key)
	}
}

// pump grants queue heads while compatible, returning their callbacks.
func (m *Manager) pump(e *entry, key string) []func() {
	var out []func()
	for len(e.queue) > 0 {
		w := e.queue[0]
		// Check only against holders; the head of the queue never waits
		// on later entries.
		ok := true
		for h, hm := range e.holders {
			if h == w.tid {
				continue
			}
			if w.mode == Exclusive || hm == Exclusive {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		e.queue = e.queue[1:]
		delete(m.waitsOn, w.tid)
		m.grant(e, w.tid, key, w.mode)
		if w.grant != nil {
			out = append(out, w.grant)
		}
	}
	return out
}

// HeldKeys returns the keys tid holds, for metrics and tests.
func (m *Manager) HeldKeys(tid uint64) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for k := range m.held[tid] {
		out = append(out, k)
	}
	return out
}

// Holders returns how many transactions hold key.
func (m *Manager) Holders(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[key]
	if e == nil {
		return 0
	}
	return len(e.holders)
}

// Holder returns the transaction that alone holds key; ok is false when
// key is free or shared by several.
func (m *Manager) Holder(key string) (tid uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[key]
	if e == nil || len(e.holders) != 1 {
		return 0, false
	}
	for h := range e.holders {
		tid = h
	}
	return tid, true
}

// QueueLen returns how many waiters are queued on key.
func (m *Manager) QueueLen(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[key]
	if e == nil {
		return 0
	}
	return len(e.queue)
}
