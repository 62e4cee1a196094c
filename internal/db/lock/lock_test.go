package lock

import (
	"testing"
)

func TestTryAcquireBasics(t *testing.T) {
	m := New()
	if !m.TryAcquire(1, "a", Exclusive) {
		t.Fatal("first X denied")
	}
	if m.TryAcquire(2, "a", Exclusive) {
		t.Fatal("conflicting X granted")
	}
	if !m.TryAcquire(1, "a", Exclusive) {
		t.Fatal("re-acquire by holder denied")
	}
	if !m.TryAcquire(2, "b", Exclusive) {
		t.Fatal("unrelated key denied")
	}
	m.Release(1)
	if !m.TryAcquire(2, "a", Exclusive) {
		t.Fatal("lock not released")
	}
}

func TestQueuedGrantOnRelease(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	granted := false
	res := m.Acquire(2, "a", Exclusive, func() { granted = true })
	if res != Queued {
		t.Fatalf("Acquire = %v, want Queued", res)
	}
	if queueLen(m, "a") != 1 {
		t.Fatal("waiter not queued")
	}
	m.Release(1)
	if !granted {
		t.Fatal("grant callback not invoked on release")
	}
	if m.Holders("a") != 1 || queueLen(m, "a") != 0 {
		t.Fatal("grant bookkeeping wrong")
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	var order []int
	m.Acquire(2, "a", Exclusive, func() { order = append(order, 2) })
	m.Acquire(3, "a", Exclusive, func() { order = append(order, 3) })
	m.Release(1)
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("grant order = %v, want [2]", order)
	}
	m.Release(2)
	if len(order) != 2 || order[1] != 3 {
		t.Fatalf("grant order = %v, want [2 3]", order)
	}
}

func TestReleaseCancelsQueuedWait(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.Acquire(2, "a", Exclusive, func() { t.Fatal("aborted waiter granted") })
	m.Release(2) // waiter gives up (transaction aborted)
	if queueLen(m, "a") != 0 {
		t.Fatal("cancelled waiter still queued")
	}
	m.Release(1)
}

func TestAcquireAlreadyHeld(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	if res := m.Acquire(1, "a", Exclusive, nil); res != Granted {
		t.Fatalf("X holder asking for X again = %v, want Granted", res)
	}
}

func TestHolder(t *testing.T) {
	m := New()
	if _, ok := m.Holder("a"); ok {
		t.Fatal("free key has a holder")
	}
	m.TryAcquire(7, "a", Exclusive)
	if h, ok := m.Holder("a"); !ok || h != 7 {
		t.Fatalf("Holder = %d/%v, want 7", h, ok)
	}
	m.Release(7)
	if _, ok := m.Holder("a"); ok {
		t.Fatal("released key still has a holder")
	}
}

// A key nobody holds or waits on keeps no entry: the table does not grow
// with every key ever locked.
func TestReleaseForgetsKey(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.Acquire(2, "a", Exclusive, nil)
	m.Acquire(3, "a", Exclusive, nil)
	m.Release(3) // a waiter gives up
	m.Release(1) // 2 is granted
	m.Release(2)
	m.TryAcquire(4, "b", Exclusive)
	m.TryAcquire(5, "b", Exclusive) // a conflict leaves nothing behind either
	m.Release(4)
	if len(m.locks) != 0 {
		t.Fatalf("%d entries left after every lock was released", len(m.locks))
	}
}

// queueLen is how many waiters are queued on key.
func queueLen(m *Manager, key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.locks[key]; e != nil {
		return len(e.queue)
	}
	return 0
}
