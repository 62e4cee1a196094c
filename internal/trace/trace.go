// Package trace records structured execution traces of protocol runs.
//
// A trace is the ground truth the checkers and the Section 6 case classifier
// work from: every message send, delivery, bounce (undeliverable return),
// drop, state transition, decision and timer action is appended with its
// virtual timestamp. Traces are deterministic for a fixed scenario and seed,
// which the determinism tests pin.
package trace

import (
	"fmt"
	"strings"

	"termproto/internal/sim"
)

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds.
const (
	Send         EventKind = iota + 1 // message handed to the network
	Deliver                           // message arrived at its destination
	Bounce                            // message returned undeliverable to sender
	Drop                              // message lost (pessimistic mode / dead site)
	Transition                        // automaton local-state change
	Decide                            // site decided commit or abort
	TimerSet                          // timer (re)armed
	TimerFire                         // timer expired
	TimerStop                         // timer cancelled
	PartitionOn                       // partition onset
	PartitionOff                      // partition healed
	Crash                             // site failed
	Recover                           // site recovered from a failure
	Note                              // free-form annotation
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case Send:
		return "send"
	case Deliver:
		return "deliver"
	case Bounce:
		return "bounce"
	case Drop:
		return "drop"
	case Transition:
		return "transition"
	case Decide:
		return "decide"
	case TimerSet:
		return "timer-set"
	case TimerFire:
		return "timer-fire"
	case TimerStop:
		return "timer-stop"
	case PartitionOn:
		return "partition-on"
	case PartitionOff:
		return "partition-off"
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Note:
		return "note"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one record in a trace. Message fields are flat ints/strings so
// the package has no dependency on the protocol layer.
type Event struct {
	At   sim.Time
	Kind EventKind

	// Site is the acting site (sender for Send, receiver for Deliver,
	// original sender for Bounce, the transitioning site, ...).
	Site int

	// Message fields, set for Send/Deliver/Bounce/Drop.
	From, To int
	MsgKind  string
	TID      uint64
	Cross    bool // the src/dst pair spans the partition boundary B

	// Transition/Decide fields.
	FromState, ToState string
	Outcome            string

	Detail string
}

// String formats the event for human-readable dumps.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d %-12s", int64(e.At), e.Kind)
	switch e.Kind {
	case Send, Deliver, Bounce, Drop:
		fmt.Fprintf(&b, " %s %d->%d tid=%d", e.MsgKind, e.From, e.To, e.TID)
		if e.Cross {
			b.WriteString(" [crosses B]")
		}
	case Transition:
		fmt.Fprintf(&b, " site=%d %s->%s", e.Site, e.FromState, e.ToState)
	case Decide:
		fmt.Fprintf(&b, " site=%d %s", e.Site, e.Outcome)
	case TimerSet, TimerFire, TimerStop:
		fmt.Fprintf(&b, " site=%d", e.Site)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// Recorder accumulates events. The zero value is ready to use. A nil
// *Recorder is also valid: all methods are no-ops, so tracing can be
// disabled without branching at call sites.
type Recorder struct {
	events []Event
}

// Append adds an event to the trace.
func (r *Recorder) Append(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order. The returned slice is the
// recorder's backing store; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dump renders the whole trace, one event per line.
func (r *Recorder) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range r.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Filter returns the events satisfying keep, in order.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Messages returns message-lifecycle events (Send/Deliver/Bounce/Drop) of
// the given kind name; empty kind matches all kinds.
func (r *Recorder) Messages(eventKind EventKind, msgKind string) []Event {
	return r.Filter(func(e Event) bool {
		if e.Kind != eventKind {
			return false
		}
		return msgKind == "" || e.MsgKind == msgKind
	})
}

// CrossDelivered reports how many messages of the given kind were delivered
// across the partition boundary.
func (r *Recorder) CrossDelivered(msgKind string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == Deliver && e.Cross && e.MsgKind == msgKind {
			n++
		}
	}
	return n
}

// CrossFailed reports how many messages of the given kind bounced or were
// dropped at the boundary.
func (r *Recorder) CrossFailed(msgKind string) int {
	n := 0
	for _, e := range r.Events() {
		if (e.Kind == Bounce || e.Kind == Drop) && e.Cross && e.MsgKind == msgKind {
			n++
		}
	}
	return n
}

// FirstTime returns the time of the first event satisfying keep, and whether
// one exists.
func (r *Recorder) FirstTime(keep func(Event) bool) (sim.Time, bool) {
	for _, e := range r.Events() {
		if keep(e) {
			return e.At, true
		}
	}
	return 0, false
}

// LastTime returns the time of the last event satisfying keep, and whether
// one exists.
func (r *Recorder) LastTime(keep func(Event) bool) (sim.Time, bool) {
	evs := r.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if keep(evs[i]) {
			return evs[i].At, true
		}
	}
	return 0, false
}
