package site

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// Link is one site's end of the wall-clock network: the optimistic
// partition model in real time, independent of how a frame reaches the
// far side.
//
//   - Every message is given an instant to cross: now plus a uniform draw d
//     from [T/4, T/2). The paper's timeout analysis assumes a message
//     arriving exactly at a timer's deadline is processed before the
//     timer; real clocks have no such ordering, so worst-case delay plus
//     scheduling jitter must stay strictly inside the bound T. With
//     delays under T/2 an undeliverable return lands within T, a full T
//     before the master's 2T window closes.
//   - The instants sit in one queue per link; one goroutine sleeps until
//     the head's and judges it against time.Now() after every wake-up, so
//     a landing is never early, and late only by what the scheduler adds
//     (Late records it). A runtime timer per message landed U(0, 1 ms)
//     late — an idle Go process waits in epoll_wait in whole milliseconds
//     (runtime/netpoll_epoll.go, netpoll: delay < 1e6 becomes waitms = 1),
//     while a descriptor's readiness wakes it at once — which was ≈2 ms of
//     a commit's four hops. Protocol timers (Loop.AfterFunc) stay on
//     runtime timers: none is on the commit path and late is their safe
//     direction. On a traced partition_open bench run (T = 20 ms, 2
//     cores) the p1-timeout decisions landed a median 596 µs and a p90
//     1,194 µs after 2T, the decide fsync included. Putting AfterFunc on
//     a timerfd did not move onset_term_p90_ms past run-to-run spread (3
//     of 6 alternating pairs won), so a second waker would buy nothing.
//   - At its instant each crossing is judged by simnet.Cross, the rule the
//     simulator judges by, against the link's cut timeline, with the
//     boundary met on arrival (f = 1): a message meeting a blocked peer
//     turns around and, d after its crossing instant, the sender receives
//     its own copy marked Undeliverable. Each blocklist is in force from an
//     instant of its own, so links given one instant cut at once. No other
//     place decides: the far side delivers what crossed.
//   - A message that crosses carries the slack T/2 − d its draw left in
//     the envelope, in the site clock's µs ticks (proto.Msg.Slack): the far
//     site may hold it that much longer and still act inside the bound.
//   - A dead peer (put fails) is silence — the message is dropped without
//     a return, because a site failure must be indistinguishable from
//     message loss (paper §7).
//
// put is the far side: an in-process hand-off to the destination's Link,
// or a TCP write. It runs on the queue goroutine — a goroutine per message
// costs more CPU than the timers did — so it must not block: a far side
// that has to wait (a TCP dial) finishes on a goroutine of its own and
// reports a failure there through Lost. deliver is the near side: the
// site's own inbox. A Link owns a goroutine and, on Linux, a descriptor;
// Close releases both.
type Link struct {
	self    proto.SiteID
	put     func(proto.Msg) error
	deliver func(proto.Msg)
	// epoch is the monotonic origin of the link's instants: nanoseconds
	// since it, so that no instant is rounded and a wall-clock step cannot
	// reorder crossings.
	epoch time.Time
	// half is T/2, the top of the delay envelope, in nanoseconds.
	half sim.Duration

	// Trace, when set before traffic starts, receives the wire events —
	// send, deliver, bounce, drop: the vocabulary simnet records, so an
	// exported trace checks with the same offline rules. It must be safe
	// for concurrent use (events come from several goroutines).
	Trace func(trace.Event)
	// Late, set like Trace, observes how many microseconds after its drawn
	// instant each crossing and each bounce return happened.
	Late *obs.Histogram

	wake waker
	done chan struct{} // closed when the queue goroutine has exited

	mu     sync.Mutex
	draw   func() time.Duration // a message's delay; called with mu held
	cuts   simnet.Cuts
	q      []crossing // ascending by instant
	closed bool

	sent, delivered, bounced, dropped atomic.Uint64
}

// crossing is one queued message: the instant it is due at the boundary —
// or, once back is set, back at its sender — and the delay it drew, both in
// nanoseconds.
type crossing struct {
	at   sim.Time
	d    sim.Duration
	m    proto.Msg
	back bool
}

// waker is the per-OS seam: wake the queue goroutine once, d from now.
type waker interface {
	arm(d time.Duration) // replaces any earlier arming
	wait() bool          // blocks until an armed instant, or wakes for nothing; false once closed
	close()
}

// timerWaker is the portable waker: a runtime timer, and so up to a
// millisecond late on an idle process.
type timerWaker struct {
	tm     *time.Timer
	closed atomic.Bool
}

func newTimerWaker() *timerWaker          { return &timerWaker{tm: time.NewTimer(time.Hour)} }
func (w *timerWaker) arm(d time.Duration) { w.tm.Reset(d) }
func (w *timerWaker) wait() bool          { <-w.tm.C; return !w.closed.Load() }
func (w *timerWaker) close()              { w.closed.Store(true); w.tm.Reset(0) }

// NewLink builds a site's link and starts its queue goroutine; the caller
// owes it a Close. A zero seed derives one from the site.
func NewLink(self proto.SiteID, t time.Duration, seed int64,
	deliver func(proto.Msg), put func(proto.Msg) error) *Link {
	if seed == 0 {
		seed = 424242 + int64(self)
	}
	return newLink(self, t, deliver, put, newWaker(), seededDraw(seed, t))
}

func newLink(self proto.SiteID, t time.Duration, deliver func(proto.Msg), put func(proto.Msg) error,
	wake waker, draw func() time.Duration) *Link {
	l := &Link{
		self: self, put: put, deliver: deliver, epoch: time.Now(), half: sim.Duration(t / 2),
		wake: wake, done: make(chan struct{}), draw: draw,
	}
	go l.run()
	return l
}

// instant converts a wall-clock time to the link's nanoseconds.
func (l *Link) instant(t time.Time) sim.Time { return sim.Time(t.Sub(l.epoch)) }

func (l *Link) now() sim.Time { return l.instant(time.Now()) }

// wireEvent emits one wire-level trace event. Cross is always true: these
// are inter-site messages by construction, simnet's convention.
func (l *Link) wireEvent(k trace.EventKind, site proto.SiteID, m proto.Msg, detail string) {
	if l.Trace == nil {
		return
	}
	l.Trace(trace.Event{
		At:   nowTicks(),
		Kind: k, Site: int(site), From: int(m.From), To: int(m.To),
		MsgKind: m.Kind.String(), TID: uint64(m.TID), Cross: true, Detail: detail,
	})
}

// drawDelay picks one message's delay, uniform over [T/4, T/2): the
// daemons' envelope, whose reason simnet.Cross gives.
func drawDelay(rng *rand.Rand, t time.Duration) time.Duration {
	return t/4 + time.Duration(rng.Int63n(max(int64(t/4), 1)))
}

// seededDraw is drawDelay over a generator of its own.
func seededDraw(seed int64, t time.Duration) func() time.Duration {
	rng := rand.New(rand.NewSource(seed))
	return func() time.Duration { return drawDelay(rng, t) }
}

// Send implements Transport.
func (l *Link) Send(m proto.Msg) {
	l.sent.Add(1)
	l.wireEvent(trace.Send, l.self, m, "")
	l.mu.Lock()
	defer l.mu.Unlock()
	d := sim.Duration(l.draw())
	l.push(crossing{at: l.now() + sim.Time(d), d: d, m: m})
}

// push queues e — near the tail: instants grow with the clock, give or take
// the T/4 by which draws differ — and moves the wake-up forward when e is
// the new head. Called with l.mu held.
func (l *Link) push(e crossing) {
	if l.closed {
		return
	}
	i := sort.Search(len(l.q), func(i int) bool { return l.q[i].at > e.at })
	l.q = slices.Insert(l.q, i, e)
	if i == 0 {
		l.wake.arm(time.Duration(e.at - l.now()))
	}
}

// run is the queue goroutine: it sleeps until the head's instant, then
// lands what is due.
func (l *Link) run() {
	defer close(l.done)
	for l.wake.wait() {
		for e, ok := l.next(); ok; e, ok = l.next() {
			if !e.back {
				e.m.Slack = sim.Duration(time.Duration(l.half-e.d) / time.Microsecond)
				if err := l.put(e.m); err != nil {
					l.Lost(e.m)
				}
				continue
			}
			l.wireEvent(trace.Bounce, l.self, e.m, "")
			e.m.Undeliverable = true
			l.deliver(e.m)
		}
	}
}

// next takes the head off the queue if its instant has come — judged by
// the clock, not by the wake-up, so that nothing lands early — and
// otherwise arms the waker for it. simnet.Cross judges a crossing by its
// own instant, however late the goroutine gets to it; one that meets the
// boundary goes back on the queue as a return, due at the instant the rule
// gives.
func (l *Link) next() (e crossing, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) > 0 {
		now := l.now()
		if e = l.q[0]; e.at > now {
			l.wake.arm(time.Duration(e.at - now))
			break
		}
		l.q[0] = crossing{} // the array outlives the entry: let its payload go
		l.q = l.q[1:]
		l.Late.Observe(time.Duration(now - e.at).Microseconds())
		if e.back {
			return e, true
		}
		fate, back := simnet.Cross(e.at-sim.Time(e.d), e.d, 1, simnet.Optimistic, l.cuts, l.self, e.m.To)
		if fate == simnet.Deliver {
			return e, true
		}
		l.bounced.Add(1)
		e.back, e.at = true, back
		l.push(e)
	}
	return e, false
}

// Lost records that m, taken by put, met a dead peer.
func (l *Link) Lost(m proto.Msg) {
	l.dropped.Add(1)
	l.wireEvent(trace.Drop, m.To, m, "dead peer")
}

// Receive is the far side's entry: a frame that crossed arrives at its
// destination's Link. The sender's link already judged the crossing, so
// the only refusal is a closed link: it reports false, delivering nothing.
func (l *Link) Receive(m proto.Msg) bool {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return false
	}
	l.delivered.Add(1)
	l.wireEvent(trace.Deliver, l.self, m, "")
	l.deliver(m)
	return true
}

// SetBlocked replaces the set of peers behind the partition boundary from
// instant at on: the present when at is zero or already past. It appends to
// the link's cut timeline, superseding a cut pending from at or later, so a
// crossing due at or after at is judged by the new set and one due before
// it by the set in force until then, however late the queue goroutine gets
// to either (a message crossing exactly at the onset bounces).
func (l *Link) SetBlocked(peers []proto.SiteID, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.cuts.Set(max(l.instant(at), now), slices.Clone(peers)...)
	// No crossing is judged before the present or the queue's head.
	if len(l.q) > 0 {
		now = min(now, l.q[0].at)
	}
	for len(l.cuts) > 1 && l.cuts[1].From <= now {
		l.cuts = l.cuts[1:]
	}
}

// BlockedList returns the peers blocked now.
func (l *Link) BlockedList() []proto.SiteID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.cuts.InForce(l.now()))
}

// Counters returns the cumulative message counters.
func (l *Link) Counters() (sent, delivered, bounced, dropped uint64) {
	return l.sent.Load(), l.delivered.Load(), l.bounced.Load(), l.dropped.Load()
}

// Close empties the queue, so that what was waiting never lands, and
// returns once the queue goroutine has exited — past the put or deliver it
// was in, so not to be called from either, nor under a lock they take — and
// the waker is released. Closing twice is harmless.
func (l *Link) Close() {
	l.mu.Lock()
	first := !l.closed
	l.closed, l.q = true, nil
	l.mu.Unlock()
	if first {
		l.wake.close()
	}
	<-l.done
}
