package lock

import (
	"slices"
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
	if h, mode := m.Holders("a"); h != nil || mode != 0 {
		t.Fatalf("free key has holders %v in mode %d", h, mode)
	}
	m.TryAcquire(7, "a", Exclusive)
	if h, mode := m.Holders("a"); !slices.Equal(h, []uint64{7}) || mode != Exclusive {
		t.Fatalf("Holders = %v in mode %d, want [7] exclusive", h, mode)
	}
	m.Release(7)
	if h, _ := m.Holders("a"); h != nil {
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
	m.TryAcquire(6, "c", Add)
	m.TryAcquire(7, "c", Add)
	m.Release(6)
	m.Release(7)
	if len(m.locks) != 0 || len(m.held) != 0 {
		t.Fatalf("%d entries (%d holders) left after every lock was released", len(m.locks), len(m.held))
	}
}

func TestAddModeEscrowAddsCoexist(t *testing.T) {
	m := New()
	for tid := uint64(1); tid <= 3; tid++ {
		if !m.TryAcquire(tid, "a", Add) {
			t.Fatalf("add %d denied beside other adds", tid)
		}
	}
	if !m.TryAcquire(2, "a", Add) {
		t.Fatal("re-acquire by an add holder denied")
	}
	if h, mode := m.Holders("a"); !slices.Equal(h, []uint64{1, 2, 3}) || mode != Add {
		t.Fatalf("Holders = %v in mode %d, want [1 2 3] in add mode", h, mode)
	}
}

func TestAddModeEscrowConflictsWithExclusive(t *testing.T) {
	fails := 0 // a refusal is reported to the fail observer
	for _, order := range [][2]Mode{{Add, Exclusive}, {Exclusive, Add}} {
		m := New()
		m.SetFailObserver(func(string) { fails++ })
		if !m.TryAcquire(1, "a", order[0]) {
			t.Fatalf("%v: first lock denied", order)
		}
		if m.TryAcquire(2, "a", order[1]) {
			t.Fatalf("%v: second lock granted beside the first", order)
		}
		if h, mode := m.Holders("a"); !slices.Equal(h, []uint64{1}) || mode != order[0] {
			t.Fatalf("%v: Holders = %v in mode %d after a refusal", order, h, mode)
		}
	}
	if fails != 2 {
		t.Fatalf("fail observer saw %d failures, want 2", fails)
	}
	// An add holder does not become an exclusive one; an exclusive holder
	// may also add.
	m := New()
	m.TryAcquire(1, "a", Add)
	m.TryAcquire(2, "b", Exclusive)
	if m.TryAcquire(1, "a", Exclusive) || !m.TryAcquire(2, "b", Add) {
		t.Fatal("an add holder took its key exclusively, or an exclusive holder could not add")
	}
	if _, mode := m.Holders("b"); mode != Exclusive {
		t.Fatalf("b held in mode %d after its holder added, want exclusive", mode)
	}
}

func TestAddModeEscrowReleaseKeepsOthers(t *testing.T) {
	m := New()
	m.TryAcquire(1, "a", Add)
	m.TryAcquire(2, "a", Add)
	m.TryAcquire(3, "a", Add)
	m.Release(2)
	if h, mode := m.Holders("a"); !slices.Equal(h, []uint64{1, 3}) || mode != Add {
		t.Fatalf("Holders = %v in mode %d after releasing 2, want [1 3] in add mode", h, mode)
	}
	if m.TryAcquire(4, "a", Exclusive) {
		t.Fatal("exclusive granted while adds still hold the key")
	}
	m.Release(1)
	m.Release(3)
	if !m.TryAcquire(4, "a", Exclusive) {
		t.Fatal("exclusive denied once every add released")
	}
}
