// Package sim provides a deterministic discrete-event simulator.
//
// The simulator is the substrate on which the commit-protocol experiments
// run. Virtual time is an abstract integer tick count; the network layer
// conventionally sets the longest end-to-end propagation delay T to
// DefaultT ticks, so the paper's timeout windows (2T, 3T, 5T, 6T) are exact
// integer multiples.
//
// Determinism contract: events are executed in ascending (time, priority,
// sequence) order. Priority exists because the Huang–Li timing analysis is
// sensitive to ties at a timestamp: an undeliverable-message return that
// arrives exactly when a timer expires must be processed before the timer
// (see DESIGN.md §5.1). Sequence numbers break remaining ties in scheduling
// order, so a run is a pure function of its inputs and seed.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in virtual time, measured in ticks since the start of the
// run. Negative times are never scheduled.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration int64

// DefaultT is the conventional value, in ticks, of the longest end-to-end
// network propagation delay T used throughout the experiments. One tick is
// then T/1000, fine enough to place partition onsets between any two
// protocol events.
const DefaultT Duration = 1000

// Priority orders events that share a timestamp. Lower runs first.
type Priority uint8

// Priorities for same-timestamp events. A site's restart runs first: the
// network delivers to it from that instant on, so its recovery must have
// begun before anything reaches it. Deliveries run before partition
// edges so a message arriving exactly at partition onset is considered to
// have beaten the partition; partition edges run before timers so that an
// undeliverable return scheduled at a timer's deadline is observed by the
// automaton before the timer fires.
const (
	PriRestart   Priority = 5  // a crashed site's restart
	PriDeliver   Priority = 10 // message and undeliverable-notice deliveries
	PriPartition Priority = 20 // partition onset / heal edges
	PriTimer     Priority = 30 // timer expirations
	PriControl   Priority = 40 // harness bookkeeping (checks, snapshots)
)

// Event is a scheduled callback.
type event struct {
	at   Time
	pri  Priority
	seq  uint64
	fn   func()
	dead bool // cancelled
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct{ e *event }

// Scheduler executes events in deterministic virtual-time order.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now         Time
	seq         uint64
	heap        eventHeap
	executed    uint64
	stopped     bool
	timersFirst bool
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// SetTimersFirst flips the same-timestamp ordering so timers run BEFORE
// message deliveries. The paper's timeout analysis silently depends on the
// opposite order (an undeliverable return landing exactly at a timer
// deadline must be seen first); this switch exists so experiment E15 can
// demonstrate the inconsistency that appears without it. It affects events
// scheduled after the call.
func (s *Scheduler) SetTimersFirst(on bool) { s.timersFirst = on }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Executed reports how many events have run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending reports how many scheduled events have not yet run (including
// cancelled events not yet reaped).
func (s *Scheduler) Pending() int {
	n := 0
	for _, e := range s.heap {
		if !e.dead {
			n++
		}
	}
	return n
}

// At schedules fn to run at absolute time t with the given priority.
// Scheduling in the past (t < Now) panics: it would violate causality and
// always indicates a harness bug.
func (s *Scheduler) At(t Time, pri Priority, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if s.timersFirst && pri == PriTimer {
		pri = PriDeliver - 1
	}
	e := &event{at: t, pri: pri, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.heap, e)
	return EventID{e}
}

// After schedules fn to run d ticks from now. Negative d panics.
func (s *Scheduler) After(d Duration, pri Priority, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now+Time(d), pri, fn)
}

// Cancel marks a previously scheduled event so it will not run. Cancelling
// an already-executed or already-cancelled event is a no-op.
func (s *Scheduler) Cancel(id EventID) {
	if id.e != nil {
		id.e.dead = true
	}
}

// Stop makes the current Run call return after the in-flight event finishes.
func (s *Scheduler) Stop() { s.stopped = true }

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (s *Scheduler) Step() bool {
	for s.heap.Len() > 0 {
		e := heap.Pop(&s.heap).(*event)
		if e.dead {
			continue
		}
		s.now = e.at
		s.executed++
		e.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
// It returns the number of events executed by this call.
func (s *Scheduler) Run() uint64 {
	return s.RunUntil(-1)
}

// RunUntil executes events whose time is <= deadline (deadline < 0 means no
// limit) until the queue drains or Stop is called. Events scheduled beyond
// the deadline remain pending. It returns the number of events executed.
func (s *Scheduler) RunUntil(deadline Time) uint64 {
	s.stopped = false
	var n uint64
	for !s.stopped {
		if s.heap.Len() == 0 {
			break
		}
		if deadline >= 0 && s.heap[0].at > deadline {
			break
		}
		if s.Step() {
			n++
		}
	}
	return n
}

// eventHeap implements container/heap ordered by (at, pri, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
