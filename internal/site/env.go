// Package site is the one site runtime every backend shares: the only
// non-test implementation of proto.Env (Env), the only automaton table
// (Table), the only site assembly (Node), the only wall-clock site loop
// (Loop) and the only wall-clock link model (Link). One Node is one
// incarnation of a site — its Table, the automata it hosts and the rules
// by which events reach them, plus the storage engine's wiring, recovery
// and metrics — and whoever owns the site's goroutine steps it: the
// simulator's scheduler, or a Loop, which is the Node's wall-clock
// stepper. A runtime differs from another in exactly two seams:
//
//   - a Clock: virtual time and timers on a sim.Scheduler (SchedClock), or
//     wall time with time.AfterFunc timers that re-enter the site's inbox
//     (Loop is its own clock);
//   - a Transport: simnet.Network under the simulator, or a Link that puts
//     frames on the far side over TCP (netnode) or, in tests, in-process.
//
// Everything else — roster accessors, SendAll, the vote, the first-wins
// decision, the local-commit fast path, transition/timer/decision trace
// events — is written once, in Env. What a backend does differently when
// a site decides (the migration machinery's hook) hangs off the single
// OnDecide hook, which the Node chains after its own observations.
package site

import (
	"fmt"
	"slices"

	"termproto/internal/db/engine"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Clock is the time seam: the current time, the delay bound T, and
// one-shot timers. AfterFunc runs fn after d on the goroutine that owns the
// site's automata, unless the returned stop is called first from that same
// goroutine; a stopped timer never fires.
type Clock interface {
	Now() sim.Time
	T() sim.Duration
	AfterFunc(d sim.Duration, fn func()) (stop func())
}

// Transport is the message seam: hand one message to the network. Its
// fate — delivered to m.To, returned to m.From marked Undeliverable, or
// lost — arrives later through the site's Deliver/Undeliverable entry.
type Transport interface {
	Send(m proto.Msg)
}

// SchedClock is the virtual clock: time and timers on a sim.Scheduler.
type SchedClock struct {
	Sched *sim.Scheduler
	Bound sim.Duration
}

// Now implements Clock.
func (c SchedClock) Now() sim.Time { return c.Sched.Now() }

// T implements Clock.
func (c SchedClock) T() sim.Duration { return c.Bound }

// AfterFunc implements Clock at timer priority, so a delivery landing on
// a timer's deadline is processed first (the paper's tie-break).
func (c SchedClock) AfterFunc(d sim.Duration, fn func()) func() {
	id := c.Sched.After(d, sim.PriTimer, fn)
	return func() { c.Sched.Cancel(id) }
}

// Site is one site as its automata see it: identity, the two seams, the
// attached database, and the observers. The zero hooks are inert.
type Site struct {
	ID        proto.SiteID
	Clock     Clock
	Transport Transport
	// Engine is the site's database (nil: the site votes yes unless the
	// transaction's Spec scripts a no).
	Engine *engine.Engine
	// Trace receives the automata's protocol events — transitions, timer
	// actions, decisions, notes — stamped with time, site and TID.
	Trace func(trace.Event)
	// OnDecide runs once per (site, transaction), after the decision was
	// applied to the Engine and before its trace event.
	OnDecide func(cfg proto.Config, o proto.Outcome, at sim.Time)
	// prepared runs for every yes vote where it becomes durable: a
	// slave's as it votes, a master's once its xacts are out.
	prepared func(tid proto.TxnID)
	// changed runs after every automaton callback: the Table publishes the
	// automaton's state to other goroutines from it.
	changed func(e *Env)
}

// Spec is one transaction as a site learns of it: from a submission (the
// master) or from the MsgXact envelope (a slave).
type Spec struct {
	TID    proto.TxnID
	Master proto.SiteID
	// Sites is the participant roster, master included. A single-site
	// roster takes the local-commit fast path.
	Sites []proto.SiteID
	// NoVotes lists sites scripted to vote no — a site-local failure,
	// decided by the submitter and taking precedence over the database.
	NoVotes []proto.SiteID
	Payload []byte
}

// Env is one transaction's automaton at one site together with the world
// it acts on — the proto.Env of every backend. It is confined to the
// goroutine that steps the site's Table, the only caller of its
// unexported entry points.
type Env struct {
	site    *Site
	cfg     proto.Config
	node    proto.Node
	noVotes []proto.SiteID

	outcome   proto.Outcome
	decidedAt sim.Time
	stopTimer func()
}

// newEnv instantiates the site's automaton for spec: master or slave by
// spec.Master, under protocol — or under proto.LocalCommit when the roster
// is a single site, which has no distributed atomicity to protect. start
// runs it.
func newEnv(s *Site, protocol proto.Protocol, spec Spec) *Env {
	cfg := proto.Config{TID: spec.TID, Self: s.ID, Master: spec.Master, Sites: spec.Sites, Payload: spec.Payload}
	if len(spec.Sites) == 1 {
		protocol = proto.LocalCommit{}
	}
	e := &Env{site: s, cfg: cfg, noVotes: spec.NoVotes}
	if cfg.IsMaster() {
		e.node = protocol.NewMaster(cfg)
	} else {
		e.node = protocol.NewSlave(cfg)
	}
	return e
}

// State returns the automaton's current local state name.
func (e *Env) State() string { return e.node.State() }

// start runs the automaton's Start callback. A master's Execute inside it
// only stages; the force comes here, once the xacts are in the transport,
// whose crossing delay keeps them in this process (they die with it). The
// side condition: the force returns before the site takes its next event,
// so no master sends a prepare, decides or counts a vote while its own
// fragment is not durable. A failed force is the master's own no vote.
func (e *Env) start() {
	e.run(func() { e.node.Start(e) })
	if e.site.Engine != nil && e.cfg.IsMaster() && e.outcome == proto.None && !e.force() {
		e.ownNo()
	}
}

// force makes the staged fragment durable (a no-op when nothing was
// staged) and reports the site's vote; a yes is the prepared edge.
func (e *Env) force() bool {
	vote := e.site.Engine.Force(e.cfg.TID)
	if vote && e.site.prepared != nil {
		e.site.prepared(e.cfg.TID)
	}
	return vote
}

// ownNo hands a master whose xacts are out its own no vote: its force
// failed, or an older transaction wounded it in w1. The abort that follows
// may leave right behind the xacts, and links keep no order: where it lands
// first it means nothing. T later every xact has landed or come back, so it
// is said once more.
func (e *Env) ownNo() {
	e.deliver(proto.Msg{TID: e.cfg.TID, From: e.cfg.Self, To: e.cfg.Self, Kind: proto.MsgNo})
	if e.outcome == proto.Abort {
		e.site.Clock.AfterFunc(e.T(), func() { e.SendAll(proto.MsgAbort, nil) })
	}
}

// deliver hands the automaton a delivered message.
func (e *Env) deliver(m proto.Msg) { e.run(func() { e.node.OnMsg(e, m) }) }

// undeliverable hands the automaton the returned copy of a message it sent.
func (e *Env) undeliverable(m proto.Msg) { e.run(func() { e.node.OnUndeliverable(e, m) }) }

// close cancels the pending timer, silently: the site failed or shut
// down, and the automaton sees no further events.
func (e *Env) close() {
	if e.stopTimer != nil {
		e.stopTimer()
		e.stopTimer = nil
	}
}

func (e *Env) fireTimer() {
	e.stopTimer = nil
	e.emit(trace.Event{Kind: trace.TimerFire})
	e.run(func() { e.node.OnTimeout(e) })
}

// run executes one automaton callback, recording the state transition it
// caused.
func (e *Env) run(callback func()) {
	before := e.node.State()
	callback()
	if after := e.node.State(); after != before {
		e.emit(trace.Event{Kind: trace.Transition, FromState: before, ToState: after})
	}
	if e.site.changed != nil {
		e.site.changed(e)
	}
}

func (e *Env) emit(ev trace.Event) {
	if e.site.Trace == nil {
		return
	}
	ev.At, ev.Site, ev.TID = e.site.Clock.Now(), int(e.cfg.Self), uint64(e.cfg.TID)
	e.site.Trace(ev)
}

// --- proto.Env ---

// Self implements proto.Env.
func (e *Env) Self() proto.SiteID { return e.cfg.Self }

// MasterID implements proto.Env.
func (e *Env) MasterID() proto.SiteID { return e.cfg.Master }

// Sites implements proto.Env.
func (e *Env) Sites() []proto.SiteID { return e.cfg.Sites }

// Slaves implements proto.Env.
func (e *Env) Slaves() []proto.SiteID { return e.cfg.Slaves() }

// Now implements proto.Env.
func (e *Env) Now() sim.Time { return e.site.Clock.Now() }

// T implements proto.Env.
func (e *Env) T() sim.Duration { return e.site.Clock.T() }

// Send implements proto.Env.
func (e *Env) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	if to == e.cfg.Self {
		return
	}
	e.site.Transport.Send(proto.Msg{TID: e.cfg.TID, From: e.cfg.Self, To: to, Kind: kind, Payload: payload})
}

// SendAll implements proto.Env: broadcast to the transaction's roster —
// under sharded placement a strict subset of the cluster.
func (e *Env) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.cfg.Sites {
		e.Send(id, kind, payload)
	}
}

// ResetTimer implements proto.Env.
func (e *Env) ResetTimer(d sim.Duration) {
	e.StopTimer()
	e.stopTimer = e.site.Clock.AfterFunc(d, e.fireTimer)
	if e.site.Trace != nil {
		e.emit(trace.Event{Kind: trace.TimerSet, Detail: fmt.Sprintf("+%d", d)})
	}
}

// StopTimer implements proto.Env.
func (e *Env) StopTimer() {
	if e.stopTimer != nil {
		e.close()
		e.emit(trace.Event{Kind: trace.TimerStop})
	}
}

// Execute implements proto.Env. A scripted no-vote models a site-local
// failure and wins; otherwise the database votes by staging the body with
// the roster, so that a restart finds in its own log whom to ask about an
// in-doubt transaction. A payload-less body has no database ops and
// stages nothing, and a site without a database votes yes. A slave's yes
// never precedes its force; a master executes inside start, which owes the
// force.
func (e *Env) Execute(payload []byte) bool {
	switch eng := e.site.Engine; {
	case slices.Contains(e.noVotes, e.cfg.Self):
		return false
	case eng != nil:
		return (len(payload) == 0 || eng.StageAt(e.cfg.TID, payload, e.cfg.Sites)) &&
			(e.cfg.IsMaster() || e.force())
	}
	return true
}

// Decide implements proto.Env: the first decision wins and is applied to
// the database before anyone is told — an inquiry answered from durable
// state must never run ahead of the log. Repeating it is a no-op;
// reversing it panics, because only an automaton bug can.
func (e *Env) Decide(o proto.Outcome) {
	if o == proto.None {
		panic("site: Decide(None)")
	}
	if e.outcome != proto.None {
		if e.outcome != o {
			panic(fmt.Sprintf("site: site %d decided %v after %v on txn %d — protocol atomicity bug",
				e.cfg.Self, o, e.outcome, e.cfg.TID))
		}
		return
	}
	e.outcome = o
	if eng := e.site.Engine; eng != nil {
		if o == proto.Commit {
			eng.Commit(e.cfg.TID)
		} else {
			eng.Abort(e.cfg.TID)
		}
	}
	e.decidedAt = e.site.Clock.Now()
	if e.site.OnDecide != nil {
		e.site.OnDecide(e.cfg, o, e.decidedAt)
	}
	e.emit(trace.Event{Kind: trace.Decide, Outcome: o.String()})
}

// Tracef implements proto.Env.
func (e *Env) Tracef(format string, args ...any) {
	if e.site.Trace != nil {
		e.emit(trace.Event{Kind: trace.Note, Detail: fmt.Sprintf(format, args...)})
	}
}

var _ proto.Env = (*Env)(nil)
