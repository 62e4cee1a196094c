// Package prototest provides a fake proto.Env for driving protocol
// automata directly in unit tests, without a network or scheduler. It
// records sends, timer operations and the decision so tests can assert the
// automaton's externally visible behaviour step by step.
package prototest

import (
	"fmt"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Env is a recording fake proto.Env. Construct with NewEnv.
type Env struct {
	Cfg     proto.Config
	NowTime sim.Time
	TVal    sim.Duration

	// Vote is consulted by Execute; defaults to yes.
	Vote func(payload []byte) bool

	Sent        []proto.Msg
	TimerActive bool
	TimerDur    sim.Duration
	TimerResets int
	TimerStops  int
	Decision    proto.Outcome
	Decisions   int
	Notes       []string
}

// NewEnv builds a fake environment for site self among sites 1..n with the
// master at 1.
func NewEnv(self proto.SiteID, n int) *Env {
	sites := make([]proto.SiteID, n)
	for i := range sites {
		sites[i] = proto.SiteID(i + 1)
	}
	return &Env{
		Cfg:  proto.Config{TID: 1, Self: self, Master: 1, Sites: sites},
		TVal: sim.DefaultT,
	}
}

// Self implements proto.Env.
func (e *Env) Self() proto.SiteID { return e.Cfg.Self }

// MasterID implements proto.Env.
func (e *Env) MasterID() proto.SiteID { return e.Cfg.Master }

// Sites implements proto.Env.
func (e *Env) Sites() []proto.SiteID { return e.Cfg.Sites }

// Slaves implements proto.Env.
func (e *Env) Slaves() []proto.SiteID { return e.Cfg.Slaves() }

// Now implements proto.Env.
func (e *Env) Now() sim.Time { return e.NowTime }

// T implements proto.Env.
func (e *Env) T() sim.Duration { return e.TVal }

// Send implements proto.Env.
func (e *Env) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	e.Sent = append(e.Sent, proto.Msg{
		TID: e.Cfg.TID, From: e.Cfg.Self, To: to, Kind: kind, Payload: payload,
	})
}

// SendAll implements proto.Env.
func (e *Env) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.Cfg.Sites {
		if id != e.Cfg.Self {
			e.Send(id, kind, payload)
		}
	}
}

// ResetTimer implements proto.Env.
func (e *Env) ResetTimer(d sim.Duration) {
	e.TimerActive = true
	e.TimerDur = d
	e.TimerResets++
}

// StopTimer implements proto.Env.
func (e *Env) StopTimer() {
	if e.TimerActive {
		e.TimerStops++
	}
	e.TimerActive = false
}

// Execute implements proto.Env.
func (e *Env) Execute(payload []byte) bool {
	if e.Vote != nil {
		return e.Vote(payload)
	}
	return true
}

// Decide implements proto.Env. Like the site runtime, it panics on a
// decision of None.
func (e *Env) Decide(o proto.Outcome) {
	if o == proto.None {
		panic("prototest: Decide(None)")
	}
	e.Decisions++
	if e.Decision != proto.None && e.Decision != o {
		panic(fmt.Sprintf("prototest: conflicting decisions %v then %v", e.Decision, o))
	}
	e.Decision = o
}

// Tracef implements proto.Env.
func (e *Env) Tracef(format string, args ...any) {
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
}

// SentKinds returns the kinds of all recorded sends in order.
func (e *Env) SentKinds() []proto.Kind {
	out := make([]proto.Kind, len(e.Sent))
	for i, m := range e.Sent {
		out[i] = m.Kind
	}
	return out
}

// CountSent returns how many messages of the given kind were sent.
func (e *Env) CountSent(kind proto.Kind) int {
	n := 0
	for _, m := range e.Sent {
		if m.Kind == kind {
			n++
		}
	}
	return n
}

// ClearSent forgets recorded sends (between protocol phases).
func (e *Env) ClearSent() { e.Sent = nil }

// Msg builds a message addressed to this site.
func (e *Env) Msg(from proto.SiteID, kind proto.Kind) proto.Msg {
	return proto.Msg{TID: e.Cfg.TID, From: from, To: e.Cfg.Self, Kind: kind}
}

// UD builds an undeliverable return of a message this site sent to `to`.
func (e *Env) UD(to proto.SiteID, kind proto.Kind) proto.Msg {
	return proto.Msg{TID: e.Cfg.TID, From: e.Cfg.Self, To: to, Kind: kind, Undeliverable: true}
}

var _ proto.Env = (*Env)(nil)
