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

// A key nobody holds keeps no entry: the table does not grow with every
// key ever locked.
func TestReleaseForgetsKey(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.TryAcquire(2, "a", Exclusive) // a conflict leaves nothing behind
	m.Release(2)
	m.Release(1)
	m.TryAcquire(4, "b", Exclusive)
	m.TryAcquire(5, "b", Exclusive)
	m.Release(4)
	if len(m.locks) != 0 || len(m.held) != 0 {
		t.Fatalf("%d entries (%d holders) left after every lock was released", len(m.locks), len(m.held))
	}
}
