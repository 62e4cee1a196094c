package site

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Status is a table's published view of one transaction, safe to read from
// any goroutine. Times are the site clock's: ticks under the simulator, µs
// since the Unix epoch under a Loop.
type Status struct {
	TID       proto.TxnID
	Master    proto.SiteID
	Sites     []proto.SiteID
	State     string
	Outcome   proto.Outcome
	DecidedAt sim.Time
	// StartedAt is when this site first learned of the transaction.
	StartedAt sim.Time
}

// Table is the automata one incarnation of one site hosts (inside its
// Node) and the rules by which events reach them. A site learns of a transaction only from its
// submission (the master) or from the first MsgXact envelope (a slave);
// any other message for a transaction it never learned of is dropped. A
// duplicate submission is dropped too, a MsgXact leaves the site wrapped in
// the envelope a slave is spawned from, and a recovery inquiry is answered
// from durable state only. A submission or first MsgXact whose keys are
// held here waits before its automaton exists, holding no lock (park).
//
// A Table has no goroutine and no clock of its own: whoever owns the site's
// goroutine steps it — the simulator's scheduler (a Table is a
// simnet.Handler), or a Loop. Submit, Deliver, Undeliverable and Close run
// on that goroutine; Txn and Txns are safe from any. A crash is Close, a
// restart is a new Table over the same Participant.
type Table struct {
	site     Site
	protocol proto.Protocol
	out      Transport
	// envs is the automaton table, touched only by the stepping goroutine.
	envs map[proto.TxnID]*Env
	// parked are the transactions waiting, holding no lock, for keys
	// another transaction holds; they have no automaton yet.
	parked map[proto.TxnID]*parked
	// waited, when set, observes how each wait ended: obs.WaitGranted,
	// WaitExpired or WaitDropped.
	waited func(spec Spec, outcome int)
	// wounded are the masters the wound rule aborted in their engine
	// during the current event; they take their own no once it returns.
	wounded []wounded
	// inquired lists the sites whose inquiry waits for an automaton's decision.
	inquired map[proto.TxnID][]proto.SiteID

	mu   sync.Mutex
	view map[proto.TxnID]*Status
}

// NewTable builds an empty table for site s under protocol; the table
// sends through s.Transport.
func NewTable(s Site, protocol proto.Protocol) *Table {
	t := &Table{
		protocol: protocol,
		out:      s.Transport,
		envs:     make(map[proto.TxnID]*Env),
		parked:   make(map[proto.TxnID]*parked),
		inquired: make(map[proto.TxnID][]proto.SiteID),
		view:     make(map[proto.TxnID]*Status),
	}
	s.Transport, s.changed = xactWrapper{t}, t.publish
	s.Clock = tableClock{s.Clock, t}
	t.site = s
	return t
}

// Submit starts a transaction with this site as master; the slaves are
// spawned at their own sites by the MsgXact envelope. A submission whose
// keys are held waits at most T/4: no message has left yet, so no bound of
// the paper constrains the wait, and a longer one costs the master's
// commit latency more than it gains.
func (t *Table) Submit(spec Spec) {
	if t.envs[spec.TID] == nil && t.parked[spec.TID] == nil && !t.park(spec, proto.Msg{}, t.site.Clock.T()/4) {
		t.spawn(spec, t.site.Clock.Now()).start()
	}
	t.stepped()
}

// Deliver hands the table a message from the transport: one addressed to
// this site, or (m.Undeliverable) the returned copy of one it sent.
func (t *Table) Deliver(m proto.Msg) {
	t.deliver(m)
	t.stepped()
}

func (t *Table) deliver(m proto.Msg) {
	if m.Kind == proto.MsgInquire && !m.Undeliverable {
		t.answerInquiry(m)
		return
	}
	e := t.envs[m.TID]
	if m.Undeliverable {
		if e != nil {
			e.undeliverable(m)
		}
		return
	}
	if m.Kind == proto.MsgXact {
		env, err := DecodeXact(m.Payload)
		if err != nil {
			t.note(m.TID, "bad xact envelope from site %d: %v", m.From, err)
			return
		}
		m.Payload = env.Body
		if e == nil {
			spec := Spec{
				TID: m.TID, Master: env.Master, Sites: env.Sites,
				NoVotes: env.NoVotes, Payload: env.Body,
			}
			if t.parked[m.TID] != nil || t.park(spec, m, m.Slack) {
				return
			}
			e = t.spawn(spec, t.site.Clock.Now())
			e.start()
		}
	}
	if e != nil {
		e.deliver(m)
		return
	}
	if p := t.parked[m.TID]; p != nil && m.Kind == proto.MsgAbort {
		t.note(m.TID, "parked xact dropped: the master aborted")
		t.unpark(p, obs.WaitDropped)
	}
}

// parked is one transaction waiting in the table for a key another
// transaction holds: a submission, or a slave's first MsgXact (xact).
type parked struct {
	spec Spec
	xact proto.Msg // the zero Msg for a submission
	at   sim.Time  // when the site learned of the transaction
	stop func()
}

// blocker is a Participant that can tell, taking nothing, which
// transaction holds a key a body would lock (engine.Engine).
type blocker interface {
	Blocker(tid proto.TxnID, payload []byte) (holder uint64, blocked bool)
}

// blocked reports the holder spec must wait for: a transaction holding one
// of its keys here that the wound rule cannot take. A site scripted to vote
// no on spec never waits, nor does one without a blocker.
func (t *Table) blocked(spec Spec) (holder uint64, ok bool) {
	b, isBlocker := t.site.Participant.(blocker)
	if !isBlocker || slices.Contains(spec.NoVotes, t.site.ID) {
		return 0, false
	}
	holder, ok = b.Blocker(spec.TID, spec.Payload)
	return holder, ok && !t.woundable(holder, uint64(spec.TID))
}

// park holds spec back, holding no lock, for at most budget while it is
// blocked, and reports whether it did. A parked item holds nothing another
// transaction waits for, so no waits-for cycle can form, and age does not
// matter. It goes on as it arrived once its keys free (stepped) or its
// budget runs out — then to be refused, as without a wait; an abort for a
// parked xact drops it, so its slave is never spawned. A slave's budget is
// its xact's Slack: to every automaton the wait is a slower hop inside the
// delay bound.
func (t *Table) park(spec Spec, xact proto.Msg, budget sim.Duration) bool {
	if budget <= 0 {
		return false
	}
	holder, ok := t.blocked(spec)
	if !ok {
		return false
	}
	p := &parked{spec: spec, xact: xact, at: t.site.Clock.Now()}
	p.stop = t.site.Clock.AfterFunc(budget, func() { t.unpark(p, obs.WaitExpired) })
	t.parked[spec.TID] = p
	t.note(spec.TID, "parked behind txn %d for at most %d", holder, budget)
	return true
}

// unpark ends p's wait with outcome: unless it was dropped, the
// transaction goes on as it arrived.
func (t *Table) unpark(p *parked, outcome int) {
	delete(t.parked, p.spec.TID)
	p.stop()
	if t.waited != nil {
		t.waited(p.spec, outcome)
	}
	if outcome == obs.WaitDropped {
		return
	}
	e := t.spawn(p.spec, p.at)
	e.start()
	if p.xact.Kind == proto.MsgXact {
		e.deliver(p.xact)
	}
}

// stepped runs once the table has taken an event — a submission, a
// delivery, a timer: every parked transaction that is no longer blocked
// goes on, oldest TID first, and then the masters wounded meanwhile take
// their own no.
func (t *Table) stepped() {
	if len(t.parked) > 0 {
		for _, tid := range slices.Sorted(maps.Keys(t.parked)) {
			if p := t.parked[tid]; p != nil {
				if _, ok := t.blocked(p.spec); !ok {
					t.unpark(p, obs.WaitGranted)
				}
			}
		}
	}
	t.settleWounds()
}

// tableClock is the Clock the table's automata and parked items time out
// by: each expiry is an event, after which the table steps.
type tableClock struct {
	Clock
	t *Table
}

func (c tableClock) AfterFunc(d sim.Duration, fn func()) func() {
	return c.Clock.AfterFunc(d, func() {
		fn()
		c.t.stepped()
	})
}

// note writes a trace note for tid at this site.
func (t *Table) note(tid proto.TxnID, format string, args ...any) {
	if t.site.Trace != nil {
		t.site.Trace(trace.Event{
			At: t.site.Clock.Now(), Kind: trace.Note, Site: int(t.site.ID), TID: uint64(tid),
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// woundable is the wound rule: holder may be aborted in favour of tid when
// it is younger (a higher TID) and is this site's own master transaction,
// undecided in w1 — every registered master's state while it collects
// votes, before any prepare exists anywhere, so an abort there is safe at
// every site. A slave that voted yes, a master past w1 and a transaction
// recovery left in doubt (no automaton in this incarnation) are never
// wounded.
func (t *Table) woundable(holder, tid uint64) bool {
	e := t.envs[proto.TxnID(holder)]
	return holder > tid && e != nil && e.cfg.IsMaster() && e.outcome == proto.None && e.State() == "w1"
}

// wound is the engine's wound rule (engine.SetWound) at this site: it
// reports woundable and queues the wounded master, which takes its own no
// once the current event returns. It runs on the stepping goroutine, inside
// the engine's StageAt.
func (t *Table) wound(holder, tid uint64) bool {
	if !t.woundable(holder, tid) {
		return false
	}
	t.wounded = append(t.wounded, wounded{t.envs[proto.TxnID(holder)], proto.TxnID(tid)})
	return true
}

// wounded is one master the wound rule aborted, and the older transaction
// that took its lock.
type wounded struct {
	e  *Env
	by proto.TxnID
}

// settleWounds hands every master wounded during the event just stepped
// its own no.
func (t *Table) settleWounds() {
	for len(t.wounded) > 0 {
		w := t.wounded[0]
		t.wounded = t.wounded[1:]
		w.e.Tracef("wounded in w1 by older txn %d", w.by)
		w.e.ownNo()
	}
}

// Undeliverable implements simnet.Handler: the network marked m returned.
func (t *Table) Undeliverable(m proto.Msg) { t.Deliver(m) }

// Close silences every automaton's timer and drops every parked
// transaction; the view stays readable.
func (t *Table) Close() {
	for _, e := range t.envs {
		e.close()
	}
	for _, p := range t.parked {
		t.unpark(p, obs.WaitDropped)
	}
}

// xactWrapper is the Transport the table's automata send through: a
// MsgXact leaves the site wrapped in the envelope from which the far site
// spawns its slave.
type xactWrapper struct{ t *Table }

func (w xactWrapper) Send(m proto.Msg) {
	if m.Kind == proto.MsgXact {
		if e := w.t.envs[m.TID]; e != nil {
			m.Payload = EncodeXact(XactEnvelope{
				Master: e.cfg.Master, Sites: e.cfg.Sites, NoVotes: e.noVotes, Body: m.Payload,
			})
		}
	}
	w.t.out.Send(m)
}

// spawn instantiates and registers one transaction's automaton; the site
// learned of the transaction at learned.
func (t *Table) spawn(spec Spec, learned sim.Time) *Env {
	e := newEnv(&t.site, t.protocol, spec)
	t.envs[spec.TID] = e
	t.mu.Lock()
	t.view[spec.TID] = &Status{
		TID: spec.TID, Master: spec.Master,
		Sites: append([]proto.SiteID(nil), spec.Sites...),
		State: e.State(), StartedAt: learned,
	}
	t.mu.Unlock()
	return e
}

// publish mirrors an automaton's state into the view (Site.changed), and
// answers the inquiries that waited for its decision.
func (t *Table) publish(e *Env) {
	t.mu.Lock()
	st := t.view[e.cfg.TID]
	st.State = e.State()
	st.Outcome, st.DecidedAt = e.outcome, e.decidedAt
	t.mu.Unlock()
	if askers := t.inquired[e.cfg.TID]; e.outcome != proto.None && len(askers) > 0 {
		delete(t.inquired, e.cfg.TID)
		for _, from := range askers {
			t.answerInquiry(proto.Msg{TID: e.cfg.TID, From: from})
		}
	}
}

// Txn returns the view of one transaction; ok is false when this
// incarnation of the site never learned of it.
func (t *Table) Txn(tid proto.TxnID) (Status, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.view[tid]
	if st == nil {
		return Status{}, false
	}
	return *st, true
}

// Txns returns the view of every transaction this incarnation hosted, in
// TID order — also the count of automata it spawned.
func (t *Table) Txns() []Status {
	t.mu.Lock()
	out := make([]Status, 0, len(t.view))
	for _, st := range t.view {
		out = append(out, *st)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// durable is the part of a database the inquiry round reads.
type durable interface {
	Outcome(tid uint64) (proto.Outcome, bool)
}

// answerInquiry replies to a recovery inquiry from durable state. A site
// with no durable decision — undecided, or no database at all — stays
// silent: volatile automaton state would not survive its own restart, so
// it is not authoritative, and the asker's timeout bounds the silence. A
// database site still deciding answers once its decision is (publish).
func (t *Table) answerInquiry(m proto.Msg) {
	db, ok := t.site.Participant.(durable)
	if !ok {
		return
	}
	kind := proto.MsgCommit
	switch o, ok := db.Outcome(uint64(m.TID)); {
	case !ok || o == proto.None:
		if e := t.envs[m.TID]; e != nil && e.outcome == proto.None && !slices.Contains(t.inquired[m.TID], m.From) {
			t.inquired[m.TID] = append(t.inquired[m.TID], m.From)
		}
		return
	case o == proto.Abort:
		kind = proto.MsgAbort
	}
	t.out.Send(proto.Msg{TID: m.TID, From: t.site.ID, To: m.From, Kind: kind})
}
