package site

import (
	"fmt"
	"sort"
	"sync"

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
// from durable state only.
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
		view:     make(map[proto.TxnID]*Status),
	}
	s.Transport, s.changed = xactWrapper{t}, t.publish
	t.site = s
	return t
}

// Submit starts a transaction with this site as master; the slaves are
// spawned at their own sites by the MsgXact envelope.
func (t *Table) Submit(spec Spec) {
	if t.envs[spec.TID] == nil {
		t.spawn(spec).start()
	}
}

// Deliver hands the table a message from the transport: one addressed to
// this site, or (m.Undeliverable) the returned copy of one it sent.
func (t *Table) Deliver(m proto.Msg) {
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
			if t.site.Trace != nil {
				t.site.Trace(trace.Event{
					At: t.site.Clock.Now(), Kind: trace.Note, Site: int(t.site.ID), TID: uint64(m.TID),
					Detail: fmt.Sprintf("bad xact envelope from site %d: %v", m.From, err),
				})
			}
			return
		}
		m.Payload = env.Body
		if e == nil {
			e = t.spawn(Spec{
				TID: m.TID, Master: env.Master, Sites: env.Sites,
				NoVotes: env.NoVotes, Payload: env.Body,
			})
			e.start()
		}
	}
	if e != nil {
		e.deliver(m)
	}
}

// Undeliverable implements simnet.Handler: the network marked m returned.
func (t *Table) Undeliverable(m proto.Msg) { t.Deliver(m) }

// Close silences every automaton's timer; the view stays readable.
func (t *Table) Close() {
	for _, e := range t.envs {
		e.close()
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

// spawn instantiates and registers one transaction's automaton.
func (t *Table) spawn(spec Spec) *Env {
	e := newEnv(&t.site, t.protocol, spec)
	t.envs[spec.TID] = e
	t.mu.Lock()
	t.view[spec.TID] = &Status{
		TID: spec.TID, Master: spec.Master,
		Sites: append([]proto.SiteID(nil), spec.Sites...),
		State: e.State(), StartedAt: t.site.Clock.Now(),
	}
	t.mu.Unlock()
	return e
}

// publish mirrors an automaton's state into the view (Site.changed).
func (t *Table) publish(e *Env) {
	t.mu.Lock()
	st := t.view[e.cfg.TID]
	st.State = e.State()
	st.Outcome, st.DecidedAt = e.outcome, e.decidedAt
	t.mu.Unlock()
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
// it is not authoritative, and the asker's timeout bounds the silence.
func (t *Table) answerInquiry(m proto.Msg) {
	db, ok := t.site.Participant.(durable)
	if !ok {
		return
	}
	kind := proto.MsgCommit
	switch o, ok := db.Outcome(uint64(m.TID)); {
	case !ok || o == proto.None:
		return
	case o == proto.Abort:
		kind = proto.MsgAbort
	}
	t.out.Send(proto.Msg{TID: m.TID, From: t.site.ID, To: m.From, Kind: kind})
}
