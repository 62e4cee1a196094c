package site

import (
	"sync"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Options parameterizes a wall-clock site loop.
type Options struct {
	ID proto.SiteID
	// T is the wall-clock value of the delay bound; one tick is 1µs.
	T time.Duration
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
// steps a Node's table, serializing its events through an inbox, plus the
// asking half of the recovery inquiry round. It is the Node's Clock —
// timers re-enter the inbox — and its Transport, sending through whatever
// Start is given. A Loop steps one incarnation of a site: a crash is
// Close, a restart is a new Loop and a new Node over the same Participant.
type Loop struct {
	id   proto.SiteID
	node *Node
	t    time.Duration
	out  Transport

	inbox  chan event
	done   chan struct{}
	exited chan struct{}

	mu     sync.Mutex
	inq    map[proto.TxnID]chan inqReply // pending Inquire calls
	closed bool
}

type inqReply struct {
	o  proto.Outcome
	ok bool
}

// NewLoop builds a loop; Start launches it over a Node built on l.Site().
func NewLoop(opts Options) *Loop {
	return &Loop{
		id: opts.ID, t: opts.T,
		// Deep enough that transport and timer goroutines rarely block
		// behind a loop that is inside an fsync.
		inbox:  make(chan event, 1024),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		inq:    make(map[proto.TxnID]chan inqReply),
	}
}

// Site is the loop's half of the site a Node stepped by it is built on:
// the site's ID, the loop as its clock and as its transport. The Node's
// Trace and OnDecide hooks run on the loop goroutine.
func (l *Loop) Site() Site { return Site{ID: l.id, Clock: l, Transport: loopOut{l}} }

// loopOut is the table's Transport: whatever Start was given.
type loopOut struct{ l *Loop }

func (o loopOut) Send(m proto.Msg) { o.l.out.Send(m) }

// Start launches the loop goroutine stepping n, sending through out.
func (l *Loop) Start(n *Node, out Transport) {
	l.node, l.out = n, out
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
	if l.node != nil { // Start ran: wait for its goroutine
		<-l.exited
		l.node.Close()
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

// handle processes one event on the loop goroutine: a timer expiry, a
// submission, a reply to this site's pending Inquire, or anything else the
// table takes.
func (l *Loop) handle(ev event) {
	switch {
	case ev.timer != nil:
		if fn := ev.timer.fn; fn != nil {
			ev.timer.fn = nil
			fn()
		}
	case ev.start != nil:
		l.node.Submit(*ev.start)
	case !l.completeInquiry(ev.msg):
		l.node.Deliver(ev.msg)
	}
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
	l.out.Send(proto.Msg{TID: tid, From: l.id, To: peer, Kind: proto.MsgInquire})
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
