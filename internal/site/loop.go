package site

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Options parameterizes a wall-clock site loop.
type Options struct {
	ID       proto.SiteID
	Protocol proto.Protocol
	// T is the wall-clock value of the delay bound; one tick is 1µs.
	T time.Duration
	// Participant, Trace and OnDecide are the Site fields of the same
	// names. Trace and OnDecide run on the loop goroutine.
	Participant proto.Participant
	Trace       func(trace.Event)
	OnDecide    func(cfg proto.Config, o proto.Outcome, at sim.Time)
}

// Status is a loop's published view of one transaction, safe to read from
// any goroutine. Times are the loop clock's (µs since the Unix epoch).
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

// event is one unit of work for the loop goroutine: a submitted
// transaction, a message handed up by the transport (delivered, or
// returned undeliverable), or a timer expiry.
type event struct {
	start *Spec
	msg   proto.Msg
	timer *wallTimer
}

// wallTimer is one armed timer; fn is cleared by stop and by firing, on
// the loop goroutine, so an expiry already queued behind a stop is inert.
type wallTimer struct{ fn func() }

// Loop is one site of the protocol on the wall clock: a goroutine that
// serializes the site's events through an inbox, the table of its live
// automata, and the site-level half of the recovery inquiry round. It is
// its own Clock — timers re-enter the inbox — and sends through whatever
// Transport Start is given. A Loop is one incarnation of a site: a crash
// is Close, a restart is a new Loop over the same Participant.
type Loop struct {
	site     Site
	protocol proto.Protocol
	t        time.Duration
	out      Transport

	inbox  chan event
	done   chan struct{}
	exited chan struct{}
	// envs is the automaton table, touched only by the loop goroutine
	// (and by Close once that goroutine has exited).
	envs map[proto.TxnID]*Env

	mu     sync.Mutex
	view   map[proto.TxnID]*Status
	inq    map[proto.TxnID]chan inqReply // pending Inquire calls
	closed bool
}

type inqReply struct {
	o  proto.Outcome
	ok bool
}

// NewLoop builds a loop; Start launches it.
func NewLoop(opts Options) *Loop {
	l := &Loop{
		protocol: opts.Protocol,
		t:        opts.T,
		// Deep enough that transport and timer goroutines rarely block
		// behind a loop that is inside an fsync.
		inbox:  make(chan event, 1024),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		envs:   make(map[proto.TxnID]*Env),
		view:   make(map[proto.TxnID]*Status),
		inq:    make(map[proto.TxnID]chan inqReply),
	}
	l.site = Site{
		ID: opts.ID, Clock: l, Transport: xactWrapper{l},
		Participant: opts.Participant, Trace: opts.Trace, OnDecide: opts.OnDecide,
		Changed: l.publish,
	}
	return l
}

// Start launches the loop goroutine, sending through out.
func (l *Loop) Start(out Transport) {
	l.out = out
	go func() {
		defer close(l.exited)
		for {
			select {
			case ev := <-l.inbox:
				l.handle(ev)
			case <-l.done:
				return
			}
		}
	}()
}

// Close stops the loop and every automaton timer, returning once the
// goroutine has exited. The published view stays readable. Idempotent.
func (l *Loop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	if l.out != nil { // Start ran: wait for its goroutine
		<-l.exited
	}
	for _, e := range l.envs {
		e.Close()
	}
}

// Submit starts a transaction with this site as master; the slaves are
// created at their own sites by the MsgXact envelope.
func (l *Loop) Submit(spec Spec) { l.enqueue(event{start: &spec}) }

// Deliver hands the loop a message from the transport: one addressed to
// this site, or the undeliverable return of one it sent.
func (l *Loop) Deliver(m proto.Msg) { l.enqueue(event{msg: m}) }

func (l *Loop) enqueue(ev event) {
	select {
	case l.inbox <- ev:
	case <-l.done:
	}
}

// nowTicks is wall time in the wall-clock runtimes' ticks of 1µs.
func nowTicks() sim.Time { return sim.Time(time.Now().UnixMicro()) }

// Now implements Clock.
func (l *Loop) Now() sim.Time { return nowTicks() }

// T implements Clock in the same ticks.
func (l *Loop) T() sim.Duration { return sim.Duration(l.t / time.Microsecond) }

// AfterFunc implements Clock: the expiry is serialized through the inbox.
func (l *Loop) AfterFunc(d sim.Duration, fn func()) func() {
	wt := &wallTimer{fn: fn}
	t := time.AfterFunc(time.Duration(d)*time.Microsecond, func() { l.enqueue(event{timer: wt}) })
	return func() {
		t.Stop()
		wt.fn = nil
	}
}

// xactWrapper is the Transport the loop's automata send through: a
// MsgXact leaves the site wrapped in the envelope from which the far site
// creates its slave.
type xactWrapper struct{ l *Loop }

func (w xactWrapper) Send(m proto.Msg) {
	if m.Kind == proto.MsgXact {
		if e := w.l.envs[m.TID]; e != nil {
			m.Payload = EncodeXact(XactEnvelope{
				Master: e.cfg.Master, Sites: e.cfg.Sites, NoVotes: e.noVotes, Body: m.Payload,
			})
		}
	}
	w.l.out.Send(m)
}

// handle processes one event on the loop goroutine: timers, then starts,
// then site-level recovery traffic (inquiries answered from durable state,
// replies routed to the pending Inquire), then automaton events — a
// MsgXact for an unknown transaction creating its slave first.
func (l *Loop) handle(ev event) {
	if ev.timer != nil {
		if fn := ev.timer.fn; fn != nil {
			ev.timer.fn = nil
			fn()
		}
		return
	}
	if ev.start != nil {
		if l.envs[ev.start.TID] == nil { // a duplicate submission is dropped
			l.spawn(*ev.start).Start()
		}
		return
	}
	m := ev.msg
	if m.Kind == proto.MsgInquire && !m.Undeliverable {
		l.answerInquiry(m)
		return
	}
	if l.completeInquiry(m) {
		return
	}
	e := l.envs[m.TID]
	if m.Undeliverable {
		if e != nil {
			e.Undeliverable(m)
		}
		return
	}
	if m.Kind == proto.MsgXact {
		env, err := DecodeXact(m.Payload)
		if err != nil {
			if l.site.Trace != nil {
				l.site.Trace(trace.Event{
					At: l.Now(), Kind: trace.Note, Site: int(l.site.ID), TID: uint64(m.TID),
					Detail: fmt.Sprintf("bad xact envelope from site %d: %v", m.From, err),
				})
			}
			return
		}
		m.Payload = env.Body
		if e == nil {
			e = l.spawn(Spec{
				TID: m.TID, Master: env.Master, Sites: env.Sites,
				NoVotes: env.NoVotes, Payload: env.Body,
			})
			e.Start()
		}
	}
	if e != nil {
		e.Deliver(m)
	}
}

// spawn instantiates and registers one transaction's automaton.
func (l *Loop) spawn(spec Spec) *Env {
	e := l.site.NewEnv(l.protocol, spec)
	l.envs[spec.TID] = e
	l.mu.Lock()
	l.view[spec.TID] = &Status{
		TID: spec.TID, Master: spec.Master,
		Sites: append([]proto.SiteID(nil), spec.Sites...),
		State: e.State(), StartedAt: l.Now(),
	}
	l.mu.Unlock()
	return e
}

// publish mirrors an automaton's state into the view (Site.Changed).
func (l *Loop) publish(e *Env) {
	l.mu.Lock()
	st := l.view[e.cfg.TID]
	st.State = e.State()
	st.Outcome, st.DecidedAt = e.outcome, e.decidedAt
	l.mu.Unlock()
}

// Txn returns the loop's view of one transaction; ok is false when this
// incarnation of the site never learned of it.
func (l *Loop) Txn(tid proto.TxnID) (Status, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.view[tid]
	if st == nil {
		return Status{}, false
	}
	return *st, true
}

// Txns returns the view of every transaction this incarnation hosted, in
// TID order — also the count of automata it spawned.
func (l *Loop) Txns() []Status {
	l.mu.Lock()
	out := make([]Status, 0, len(l.view))
	for _, st := range l.view {
		out = append(out, *st)
	}
	l.mu.Unlock()
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
func (l *Loop) answerInquiry(m proto.Msg) {
	db, ok := l.site.Participant.(durable)
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
	l.out.Send(proto.Msg{TID: m.TID, From: l.site.ID, To: m.From, Kind: kind})
}

// completeInquiry routes a message to this site's pending Inquire, if one
// matches: a decision answers it, the undeliverable return of the inquiry
// itself marks the peer unreachable. Reports whether m was consumed.
func (l *Loop) completeInquiry(m proto.Msg) bool {
	var r inqReply
	switch {
	case m.Undeliverable && m.Kind == proto.MsgInquire:
	case !m.Undeliverable && m.Kind == proto.MsgCommit:
		r = inqReply{proto.Commit, true}
	case !m.Undeliverable && m.Kind == proto.MsgAbort:
		r = inqReply{proto.Abort, true}
	default:
		return false
	}
	l.mu.Lock()
	ch := l.inq[m.TID]
	l.mu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case ch <- r:
	default: // a reply already arrived; drop the duplicate
	}
	return true
}

// Inquire runs one hop of the recovery inquiry round: a real MsgInquire
// travels to the peer, which answers from its durable state. Across an
// active partition boundary the inquiry bounces back (peer unreachable);
// a dead or undecided peer is silence, bounded by 4T — delays are at most
// T/2 each way and a bounce returns within 2T. ok is false when no
// decision was learned. One inquiry per transaction may be pending.
func (l *Loop) Inquire(peer proto.SiteID, tid proto.TxnID) (proto.Outcome, bool) {
	ch := make(chan inqReply, 1)
	l.mu.Lock()
	if l.closed || l.inq[tid] != nil {
		l.mu.Unlock()
		return proto.None, false
	}
	l.inq[tid] = ch
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.inq, tid)
		l.mu.Unlock()
	}()
	l.out.Send(proto.Msg{TID: tid, From: l.site.ID, To: peer, Kind: proto.MsgInquire})
	timeout := time.NewTimer(4 * l.t)
	defer timeout.Stop()
	select {
	case r := <-ch:
		return r.o, r.ok
	case <-timeout.C:
	case <-l.done:
	}
	return proto.None, false
}
