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
	if m.TryAcquire(2, "a", Shared) {
		t.Fatal("S granted against X")
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

func TestSharedCompatibility(t *testing.T) {
	m := New()
	if !m.TryAcquire(1, "a", Shared) || !m.TryAcquire(2, "a", Shared) || !m.TryAcquire(3, "a", Shared) {
		t.Fatal("S locks not shared")
	}
	if m.TryAcquire(4, "a", Exclusive) {
		t.Fatal("X granted against S holders")
	}
	if m.Holders("a") != 3 {
		t.Fatalf("Holders = %d", m.Holders("a"))
	}
	m.Release(1)
	m.Release(2)
	m.Release(3)
	if !m.TryAcquire(4, "a", Exclusive) {
		t.Fatal("X denied after all S released")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Shared)
	if !m.TryAcquire(1, "a", Exclusive) {
		t.Fatal("sole-holder upgrade denied")
	}
	if m.TryAcquire(2, "a", Shared) {
		t.Fatal("S granted against upgraded X")
	}
}

func TestUpgradeDeniedWithOtherHolders(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Shared)
	m.TryAcquire(2, "a", Shared)
	if m.TryAcquire(1, "a", Exclusive) {
		t.Fatal("upgrade granted while another S holder exists")
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
	if m.QueueLen("a") != 1 {
		t.Fatal("waiter not queued")
	}
	m.Release(1)
	if !granted {
		t.Fatal("grant callback not invoked on release")
	}
	if m.Holders("a") != 1 || m.QueueLen("a") != 0 {
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

func TestSharedBatchGrant(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	var granted []int
	m.Acquire(2, "a", Shared, func() { granted = append(granted, 2) })
	m.Acquire(3, "a", Shared, func() { granted = append(granted, 3) })
	m.Release(1)
	if len(granted) != 2 {
		t.Fatalf("batch S grant = %v, want both", granted)
	}
}

func TestSharedDoesNotOvertakeQueuedExclusive(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Shared)
	m.Acquire(2, "a", Exclusive, nil) // queued behind S holder
	if m.TryAcquire(3, "a", Shared) {
		t.Fatal("S overtook a queued X waiter (starvation)")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.TryAcquire(2, "b", Exclusive)
	if res := m.Acquire(1, "b", Exclusive, nil); res != Queued {
		t.Fatalf("1 waiting on b = %v, want Queued", res)
	}
	// 2 waiting on a would close the cycle 2 → 1 → 2.
	if res := m.Acquire(2, "a", Exclusive, nil); res != Deadlock {
		t.Fatalf("cycle = %v, want Deadlock", res)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.TryAcquire(2, "b", Exclusive)
	m.TryAcquire(3, "c", Exclusive)
	m.Acquire(1, "b", Exclusive, nil)
	m.Acquire(2, "c", Exclusive, nil)
	if res := m.Acquire(3, "a", Exclusive, nil); res != Deadlock {
		t.Fatalf("3-cycle = %v, want Deadlock", res)
	}
}

func TestReleaseCancelsQueuedWait(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	m.Acquire(2, "a", Exclusive, func() { t.Fatal("aborted waiter granted") })
	m.Release(2) // waiter gives up (transaction aborted)
	if m.QueueLen("a") != 0 {
		t.Fatal("cancelled waiter still queued")
	}
	m.Release(1)
}

func TestHeldKeys(t *testing.T) {
	m := New()
	m.TryAcquire(1, "x", Exclusive)
	m.TryAcquire(1, "y", Shared)
	keys := m.HeldKeys(1)
	if len(keys) != 2 {
		t.Fatalf("HeldKeys = %v", keys)
	}
	m.Release(1)
	if len(m.HeldKeys(1)) != 0 {
		t.Fatal("keys survive release")
	}
}

func TestAcquireAlreadyHeld(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Exclusive)
	if res := m.Acquire(1, "a", Shared, nil); res != Granted {
		t.Fatalf("X holder asking for S = %v, want Granted", res)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings")
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
	m.TryAcquire(1, "s", Shared)
	m.TryAcquire(2, "s", Shared)
	if _, ok := m.Holder("s"); ok {
		t.Fatal("a key shared by two reports one holder")
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
