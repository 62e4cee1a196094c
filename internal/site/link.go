package site

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/proto"
	"termproto/internal/trace"
)

// Link is one site's end of the wall-clock network: the optimistic
// partition model in real time, independent of how a frame reaches the
// far side.
//
//   - Every message waits a uniform draw from [T/4, T/2) before it
//     crosses. The paper's timeout analysis assumes a message arriving
//     exactly at a timer's deadline is processed before the timer; real
//     clocks have no such ordering, so worst-case delay plus scheduling
//     jitter must stay strictly inside the bound T. With delays under T/2
//     an undeliverable return lands within T, a full T before the
//     master's 2T window closes.
//   - A blocked peer is a partition boundary, consulted at crossing time:
//     the message turns around and, after the same delay again, the
//     sender receives its own copy marked Undeliverable.
//   - A dead peer (put fails) is silence — the message is dropped without
//     a return, because a site failure must be indistinguishable from
//     message loss (paper §7).
//
// put is the far side: an in-process hand-off to the destination's Link,
// or a TCP write. deliver is the near side: the site's own inbox.
type Link struct {
	self    proto.SiteID
	t       time.Duration
	put     func(proto.Msg) error
	deliver func(proto.Msg)

	// Trace, when set before traffic starts, receives the wire events —
	// send, deliver, bounce, drop: the vocabulary simnet records, so an
	// exported trace checks with the same offline rules. It must be safe
	// for concurrent use (events come from timer goroutines).
	Trace func(trace.Event)

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[proto.SiteID]bool
	closed  bool

	sent, delivered, bounced, dropped atomic.Uint64
}

// NewLink builds a site's link. A zero seed derives one from the site.
func NewLink(self proto.SiteID, t time.Duration, seed int64,
	deliver func(proto.Msg), put func(proto.Msg) error) *Link {
	if seed == 0 {
		seed = 424242 + int64(self)
	}
	return &Link{
		self: self, t: t, put: put, deliver: deliver,
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[proto.SiteID]bool),
	}
}

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

// Send implements Transport.
func (l *Link) Send(m proto.Msg) {
	l.sent.Add(1)
	l.wireEvent(trace.Send, l.self, m, "")
	l.mu.Lock()
	d := l.t/4 + time.Duration(l.rng.Int63n(int64(l.t/4)+1))
	l.mu.Unlock()
	time.AfterFunc(d, func() {
		l.mu.Lock()
		crossing, closed := l.blocked[m.To], l.closed
		l.mu.Unlock()
		switch {
		case closed:
		case crossing:
			l.bounced.Add(1)
			time.AfterFunc(d, func() {
				if !l.isClosed() {
					l.wireEvent(trace.Bounce, l.self, m, "")
					m.Undeliverable = true
					l.deliver(m)
				}
			})
		default:
			if err := l.put(m); err != nil {
				l.dropped.Add(1)
				l.wireEvent(trace.Drop, m.To, m, "dead peer")
			}
		}
	})
}

// Receive is the far side's entry: a frame that crossed arrives at its
// destination's Link. It reports false, delivering nothing, when the link
// is closed or the sender is blocked — severed while the frame was in
// flight.
func (l *Link) Receive(m proto.Msg) bool {
	l.mu.Lock()
	refuse := l.closed || l.blocked[m.From]
	l.mu.Unlock()
	if refuse {
		return false
	}
	l.delivered.Add(1)
	l.wireEvent(trace.Deliver, l.self, m, "")
	l.deliver(m)
	return true
}

// SetBlocked replaces the set of peers behind the partition boundary.
func (l *Link) SetBlocked(peers []proto.SiteID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blocked = make(map[proto.SiteID]bool, len(peers))
	for _, id := range peers {
		l.blocked[id] = true
	}
}

// Blocked reports whether peer is behind the boundary.
func (l *Link) Blocked(peer proto.SiteID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocked[peer]
}

// BlockedList returns the blocked peers in unspecified order.
func (l *Link) BlockedList() []proto.SiteID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]proto.SiteID, 0, len(l.blocked))
	for id := range l.blocked {
		out = append(out, id)
	}
	return out
}

// Counters returns the cumulative message counters.
func (l *Link) Counters() (sent, delivered, bounced, dropped uint64) {
	return l.sent.Load(), l.delivered.Load(), l.bounced.Load(), l.dropped.Load()
}

// Close makes in-flight delayed sends and returns no-ops.
func (l *Link) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

func (l *Link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}
