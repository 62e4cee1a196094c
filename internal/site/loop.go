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
// steps a Node, serializing its events through an inbox. It is the Node's
// Clock — timers re-enter the inbox — and its Transport, sending through
// whatever Start is given. A Loop steps one incarnation of a site: a crash is
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
	closed bool
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

// handle processes one event on the loop goroutine: a timer expiry (or a
// Do), a submission, or a message for the node.
func (l *Loop) handle(ev event) {
	switch {
	case ev.timer != nil:
		if fn := ev.timer.fn; fn != nil {
			ev.timer.fn = nil
			fn()
		}
	case ev.start != nil:
		l.node.Submit(*ev.start)
	default:
		l.node.Deliver(ev.msg)
	}
}

// Do runs fn on the loop goroutine after every event already queued; called
// before Start, fn is the first event the loop takes.
func (l *Loop) Do(fn func()) { l.enqueue(event{timer: &wallTimer{fn: fn}}) }
