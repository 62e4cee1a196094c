// Package simnet simulates the paper's computer network: point-to-point
// links with end-to-end propagation delay bounded by T, a simple network
// partition splitting the sites into two groups G1 and G2 with a boundary B
// (Fig. 4), and the optimistic failure model in which a message that cannot
// cross B is returned to its sender as an undeliverable copy within 2T.
//
// # Delivery model
//
// A message sent at time s is assigned a forward delay d ∈ (0, T], and
// Cross, the one statement of the model, decides its fate from the cut
// timeline: delivered at s+d, or returned to its sender at s + 2·f·d ≤
// s + 2T, where f is the boundary's position along the path
// (BoundaryFrac, worst case 1.0).
//
// In the pessimistic model (Mode == Pessimistic) a message that cannot
// cross B is silently lost instead of returned — the model under which
// Skeen and Stonebraker proved no resilient protocol exists; experiment E15
// reproduces that impossibility.
package simnet

import (
	"fmt"
	"slices"
	"sort"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Mode selects the partition failure model.
type Mode uint8

// Failure models.
const (
	Optimistic  Mode = iota // undeliverable messages are returned to sender
	Pessimistic             // undeliverable messages are lost
)

// Latency produces per-message forward delays. Implementations must return
// values in (0, T].
type Latency interface {
	// Delay returns the forward propagation delay for one message.
	Delay(m proto.Msg, r *sim.Rand) sim.Duration
}

// Fixed is a constant-latency model: every message takes exactly D.
type Fixed struct{ D sim.Duration }

// Delay implements Latency.
func (f Fixed) Delay(_ proto.Msg, _ *sim.Rand) sim.Duration { return f.D }

// Uniform draws each delay uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi sim.Duration }

// Delay implements Latency.
func (u Uniform) Delay(_ proto.Msg, r *sim.Rand) sim.Duration {
	return r.Duration(u.Lo, u.Hi)
}

// PerPair assigns a fixed delay per (from, to) pair, falling back to
// Default for unlisted pairs. It lets experiments build adversarial
// schedules that realize the paper's worst cases exactly.
type PerPair struct {
	Default sim.Duration
	Pairs   map[[2]proto.SiteID]sim.Duration
}

// Delay implements Latency.
func (p PerPair) Delay(m proto.Msg, _ *sim.Rand) sim.Duration {
	if d, ok := p.Pairs[[2]proto.SiteID{m.From, m.To}]; ok {
		return d
	}
	return p.Default
}

// KindRule matches messages for PerKind; zero-valued fields are wildcards.
type KindRule struct {
	From, To proto.SiteID
	Kind     proto.Kind
	D        sim.Duration
}

// PerKind assigns delays by (from, to, kind) rules, first match wins,
// falling back to Default. Delays that differ per message kind on the same
// link are required to stage the Figure 6/7/9 worst cases, where e.g. a
// slave's ack must be fast while its later probe on the same link is slow.
type PerKind struct {
	Default sim.Duration
	Rules   []KindRule
}

// Delay implements Latency.
func (p PerKind) Delay(m proto.Msg, _ *sim.Rand) sim.Duration {
	for _, r := range p.Rules {
		if (r.From == 0 || r.From == m.From) &&
			(r.To == 0 || r.To == m.To) &&
			(r.Kind == 0 || r.Kind == m.Kind) {
			return r.D
		}
	}
	return p.Default
}

// Config parameterizes a Network.
type Config struct {
	Sched *sim.Scheduler
	// T is the longest end-to-end propagation delay. Latency model outputs
	// are clamped to (0, T]. Defaults to sim.DefaultT.
	T sim.Duration
	// Latency produces per-message forward delays. Defaults to Fixed{T}.
	Latency Latency
	// BoundaryFrac is the boundary position f ∈ (0, 1] along each
	// cross-partition path. 1.0 (default) is the adversarial worst case:
	// the message discovers the partition only on arrival, so the
	// undeliverable copy returns a full 2d after sending.
	BoundaryFrac float64
	Mode         Mode
	Rand         *sim.Rand
	Trace        *trace.Recorder
}

// Handler receives deliveries for one site.
type Handler interface {
	// Deliver handles a normally delivered message.
	Deliver(m proto.Msg)
	// Undeliverable handles the returned copy of a message this site sent.
	Undeliverable(m proto.Msg)
}

// HandlerFuncs adapts two funcs to Handler.
type HandlerFuncs struct {
	OnDeliver       func(m proto.Msg)
	OnUndeliverable func(m proto.Msg)
}

// Deliver implements Handler.
func (h HandlerFuncs) Deliver(m proto.Msg) { h.OnDeliver(m) }

// Undeliverable implements Handler.
func (h HandlerFuncs) Undeliverable(m proto.Msg) { h.OnUndeliverable(m) }

// crashSpan is one failure interval; until < 0 means "not yet recovered".
type crashSpan struct {
	from, until sim.Time
}

// Network is the simulated partitionable network.
type Network struct {
	cfg      Config
	sched    *sim.Scheduler
	handlers map[proto.SiteID]Handler
	crashes  map[proto.SiteID][]crashSpan
	// cuts is the one partition timeline. It is never pruned: the trace's
	// Cross flag reads every boundary set so far.
	cuts Cuts
	// traced is the set the trace last reported in force.
	traced []proto.SiteID
	seq    uint64

	sent, delivered, bounced, dropped uint64
}

// New builds a network. It panics on a nil scheduler or invalid config,
// since those are always harness bugs.
func New(cfg Config) *Network {
	if cfg.Sched == nil {
		panic("simnet: nil scheduler")
	}
	if cfg.T <= 0 {
		cfg.T = sim.DefaultT
	}
	if cfg.Latency == nil {
		cfg.Latency = Fixed{cfg.T}
	}
	if cfg.BoundaryFrac <= 0 || cfg.BoundaryFrac > 1 {
		cfg.BoundaryFrac = 1.0
	}
	if cfg.Rand == nil {
		cfg.Rand = sim.NewRand(1)
	}
	return &Network{
		cfg:      cfg,
		sched:    cfg.Sched,
		handlers: make(map[proto.SiteID]Handler),
		crashes:  make(map[proto.SiteID][]crashSpan),
	}
}

// Register installs the handler for a site. Registering twice panics.
func (n *Network) Register(id proto.SiteID, h Handler) {
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("simnet: site %d registered twice", id))
	}
	if h == nil {
		panic("simnet: nil handler")
	}
	n.handlers[id] = h
}

// Sites returns the registered site IDs in ascending order.
func (n *Network) Sites() []proto.SiteID {
	out := make([]proto.SiteID, 0, len(n.handlers))
	for id := range n.handlers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// T returns the configured longest end-to-end delay.
func (n *Network) T() sim.Duration { return n.cfg.T }

// Cut separates the sites in g2 from the rest from instant at on (an empty
// g2 heals), superseding any cut set from at or later, and writes the edge
// to the trace when its instant comes. A message already sent keeps the
// fate Send gave it; for a timeline set in advance, judging at send time
// and judging at the crossing instant are the same.
func (n *Network) Cut(at sim.Time, g2 ...proto.SiteID) {
	// A copy of its own tells this cut from an equal one set before it.
	n.cuts.Set(at, slices.Clone(g2)...)
	if at >= n.sched.Now() {
		n.sched.At(at, sim.PriPartition, n.traceCut)
	}
}

// traceCut brings the trace up to the cut in force now: partition-off for
// the set it last reported, then partition-on for the new one. Every edge
// schedules it, so an edge superseded before its instant writes nothing.
func (n *Network) traceCut() {
	s := n.cuts.InForce(n.sched.Now())
	if len(s) == len(n.traced) && (len(s) == 0 || &s[0] == &n.traced[0]) {
		return
	}
	if len(n.traced) > 0 {
		n.trace(trace.Event{At: n.sched.Now(), Kind: trace.PartitionOff})
	}
	if len(s) > 0 {
		n.trace(trace.Event{At: n.sched.Now(), Kind: trace.PartitionOn, Detail: fmt.Sprintf("G2=%v", slices.Sorted(slices.Values(s)))})
	}
	n.traced = s
}

// Cuts returns the partition timeline, for reading.
func (n *Network) Cuts() Cuts { return n.cuts }

// Stats returns cumulative message counters:
// sent, delivered, bounced, dropped.
func (n *Network) Stats() (sent, delivered, bounced, dropped uint64) {
	return n.sent, n.delivered, n.bounced, n.dropped
}

// CrashAt marks a site as failed from time t onward: messages addressed to
// it after t are lost without an undeliverable return (a site failure is
// indistinguishable from message loss, paper §7), and the harness must stop
// driving its automata. A later RecoverAt ends the failure interval.
func (n *Network) CrashAt(id proto.SiteID, t sim.Time) {
	n.crashes[id] = append(n.crashes[id], crashSpan{from: t, until: -1})
	n.sched.At(t, sim.PriPartition, func() {
		n.trace(trace.Event{At: n.sched.Now(), Kind: trace.Crash, Site: int(id)})
	})
}

// RecoverAt ends the site's most recent open failure interval at time t:
// messages addressed to it from t onward are delivered again. Recovering a
// site that is not crashed is a no-op.
func (n *Network) RecoverAt(id proto.SiteID, t sim.Time) {
	spans := n.crashes[id]
	if len(spans) == 0 || spans[len(spans)-1].until >= 0 {
		return
	}
	spans[len(spans)-1].until = t
	n.sched.At(t, sim.PriPartition, func() {
		n.trace(trace.Event{At: n.sched.Now(), Kind: trace.Recover, Site: int(id)})
	})
}

// Crashed reports whether id is failed at time t.
func (n *Network) Crashed(id proto.SiteID, t sim.Time) bool {
	for _, s := range n.crashes[id] {
		if t >= s.from && (s.until < 0 || t < s.until) {
			return true
		}
	}
	return false
}

// Send transmits m.Kind from m.From to m.To. Cross decides at send time,
// from the cut timeline, whether the message is delivered, bounced or
// dropped. A delivered message carries the slack T − d its delay d left
// inside the bound.
func (n *Network) Send(m proto.Msg) {
	if m.From == m.To {
		panic(fmt.Sprintf("simnet: site %d sending to itself", m.From))
	}
	if _, ok := n.handlers[m.To]; !ok {
		panic(fmt.Sprintf("simnet: send to unregistered site %d", m.To))
	}
	now := n.sched.Now()
	m.Seq = n.seq
	n.seq++
	m.SentAt = now
	m.Undeliverable = false
	n.sent++

	d := n.cfg.Latency.Delay(m, n.cfg.Rand)
	if d <= 0 {
		d = 1
	}
	if d > n.cfg.T {
		d = n.cfg.T
	}
	m.Slack = n.cfg.T - d

	cross := n.cuts.Straddles(m.From, m.To)
	n.trace(msgEvent(trace.Send, now, int(m.From), m, cross))

	fate, at := Cross(now, d, n.cfg.BoundaryFrac, n.cfg.Mode, n.cuts, m.From, m.To)
	switch fate {
	case Drop:
		n.sched.At(at, sim.PriDeliver, func() {
			n.dropped++
			n.trace(msgEvent(trace.Drop, n.sched.Now(), int(m.To), m, true))
		})
		return
	case Return:
		n.sched.At(at, sim.PriDeliver, func() {
			n.bounced++
			ud := m
			ud.Undeliverable = true
			n.trace(msgEvent(trace.Bounce, n.sched.Now(), int(m.From), m, true))
			if n.Crashed(m.From, n.sched.Now()) {
				return
			}
			n.handlers[m.From].Undeliverable(ud)
		})
		return
	}
	n.sched.At(at, sim.PriDeliver, func() {
		if n.Crashed(m.To, n.sched.Now()) {
			n.dropped++
			ev := msgEvent(trace.Drop, n.sched.Now(), int(m.To), m, cross)
			ev.Detail = "dest crashed"
			n.trace(ev)
			return
		}
		n.delivered++
		n.trace(msgEvent(trace.Deliver, n.sched.Now(), int(m.To), m, cross))
		n.handlers[m.To].Deliver(m)
	})
}

func (n *Network) trace(e trace.Event) { n.cfg.Trace.Append(e) }

func msgEvent(k trace.EventKind, at sim.Time, site int, m proto.Msg, cross bool) trace.Event {
	return trace.Event{
		At:      at,
		Kind:    k,
		Site:    site,
		From:    int(m.From),
		To:      int(m.To),
		MsgKind: m.Kind.String(),
		TID:     uint64(m.TID),
		Cross:   cross,
	}
}
