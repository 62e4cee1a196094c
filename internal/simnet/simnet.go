// Package simnet simulates the paper's computer network: point-to-point
// links with end-to-end propagation delay bounded by T, a simple network
// partition splitting the sites into two groups G1 and G2 with a boundary B
// (Fig. 4), and the optimistic failure model in which a message that cannot
// cross B is returned to its sender as an undeliverable copy within 2T.
//
// # Delivery model
//
// A message from a to b sent at time s is assigned a forward delay
// d ∈ (0, T]. If a and b are on the same side of the partition (or no
// partition is active) it is delivered at s+d. Otherwise the message
// reaches the boundary at crossing time X = s + f·d, where f ∈ (0,1] is the
// boundary position along the path (BoundaryFrac, worst case 1.0): if the
// partition is active at X the message turns around and arrives back at the
// sender at s + 2·f·d ≤ s + 2T, exactly the paper's undeliverable-return
// bound; if the partition is not active at X (onset later, or already
// healed) the message is delivered normally.
//
// In the pessimistic model (Mode == Pessimistic) a message that cannot
// cross B is silently lost instead of returned — the model under which
// Skeen and Stonebraker proved no resilient protocol exists; experiment E15
// reproduces that impossibility.
package simnet

import (
	"fmt"
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
	Delay(from, to proto.SiteID, r *sim.Rand) sim.Duration
}

// Fixed is a constant-latency model: every message takes exactly D.
type Fixed struct{ D sim.Duration }

// Delay implements Latency.
func (f Fixed) Delay(_, _ proto.SiteID, _ *sim.Rand) sim.Duration { return f.D }

// Uniform draws each delay uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi sim.Duration }

// Delay implements Latency.
func (u Uniform) Delay(_, _ proto.SiteID, r *sim.Rand) sim.Duration {
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
func (p PerPair) Delay(from, to proto.SiteID, _ *sim.Rand) sim.Duration {
	if d, ok := p.Pairs[[2]proto.SiteID{from, to}]; ok {
		return d
	}
	return p.Default
}

// MsgLatency is an optional refinement of Latency: implementations see the
// whole message, so delays can differ per message kind on the same link —
// required to stage the Figure 6/7/9 worst cases, where e.g. a slave's ack
// must be fast while its later probe on the same link is slow.
type MsgLatency interface {
	Latency
	DelayMsg(m proto.Msg, r *sim.Rand) sim.Duration
}

// KindRule matches messages for PerKind; zero-valued fields are wildcards.
type KindRule struct {
	From, To proto.SiteID
	Kind     proto.Kind
	D        sim.Duration
}

// PerKind assigns delays by (from, to, kind) rules, first match wins,
// falling back to Default.
type PerKind struct {
	Default sim.Duration
	Rules   []KindRule
}

// DelayMsg implements MsgLatency.
func (p PerKind) DelayMsg(m proto.Msg, _ *sim.Rand) sim.Duration {
	for _, r := range p.Rules {
		if (r.From == 0 || r.From == m.From) &&
			(r.To == 0 || r.To == m.To) &&
			(r.Kind == 0 || r.Kind == m.Kind) {
			return r.D
		}
	}
	return p.Default
}

// Delay implements Latency (kind treated as wildcard-only fallback).
func (p PerKind) Delay(from, to proto.SiteID, r *sim.Rand) sim.Duration {
	return p.DelayMsg(proto.Msg{From: from, To: to}, r)
}

// Partition is a simple network partition: the sites in G2 are separated
// from everything else between At (inclusive) and Heal (exclusive). If
// Heal <= At the partition is permanent. The zero value means no partition.
type Partition struct {
	At   sim.Time
	Heal sim.Time
	G2   map[proto.SiteID]bool
}

// Active reports whether the partition is in force at time t.
func (p *Partition) Active(t sim.Time) bool {
	if p == nil || len(p.G2) == 0 {
		return false
	}
	if t < p.At {
		return false
	}
	if p.Heal > p.At && t >= p.Heal {
		return false
	}
	return true
}

// Permanent reports whether the partition never heals.
func (p *Partition) Permanent() bool {
	return p != nil && len(p.G2) > 0 && p.Heal <= p.At
}

// CrossPair reports whether a and b are on opposite sides of B (regardless
// of whether the partition is currently active).
func (p *Partition) CrossPair(a, b proto.SiteID) bool {
	if p == nil || len(p.G2) == 0 {
		return false
	}
	return p.G2[a] != p.G2[b]
}

// Separated reports whether a message between a and b at time t cannot
// cross the boundary.
func (p *Partition) Separated(a, b proto.SiteID, t sim.Time) bool {
	return p.Active(t) && p.CrossPair(a, b)
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
	// Partitions is the full partition timeline: a sequence of (possibly
	// transient) partitions with distinct onsets, enabling repartition
	// scenarios. More partitions can be added while the simulation runs
	// via AddPartition.
	Partitions []*Partition
	Rand       *sim.Rand
	Trace      *trace.Recorder
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
	cfg        Config
	sched      *sim.Scheduler
	handlers   map[proto.SiteID]Handler
	crashes    map[proto.SiteID][]crashSpan
	partitions []*Partition
	seq        uint64

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
	n := &Network{
		cfg:      cfg,
		sched:    cfg.Sched,
		handlers: make(map[proto.SiteID]Handler),
		crashes:  make(map[proto.SiteID][]crashSpan),
	}
	for _, p := range cfg.Partitions {
		n.addPartition(p)
	}
	return n
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

// AddPartition appends a partition to the timeline and schedules its trace
// edges. Partitions whose onset lies in the past take effect for messages
// sent from now on (already-sent messages computed their fate at send
// time).
func (n *Network) AddPartition(p *Partition) { n.addPartition(p) }

func (n *Network) addPartition(p *Partition) {
	if p == nil || len(p.G2) == 0 {
		return
	}
	n.partitions = append(n.partitions, p)
	n.schedulePartitionEdges(p)
}

// Separated reports whether a message between a and b at time t cannot
// cross some active boundary — the reachability predicate recovery-time
// inquiries consult.
func (n *Network) Separated(a, b proto.SiteID, t sim.Time) bool {
	return n.separatedAt(a, b, t)
}

// separatedAt reports whether a message between a and b cannot cross some
// boundary active at time t.
func (n *Network) separatedAt(a, b proto.SiteID, t sim.Time) bool {
	for _, p := range n.partitions {
		if p.Separated(a, b, t) {
			return true
		}
	}
	return false
}

// crossesAny reports whether the pair (a, b) straddles any configured
// partition's boundary, active or not — the trace annotation for Send
// events.
func (n *Network) crossesAny(a, b proto.SiteID) bool {
	for _, p := range n.partitions {
		if p.CrossPair(a, b) {
			return true
		}
	}
	return false
}

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

// Send transmits m.Kind from m.From to m.To. The fate of the message
// (deliver, bounce, drop) is computed deterministically at send time from
// the partition schedule; see the package comment for the model.
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

	var d sim.Duration
	if ml, ok := n.cfg.Latency.(MsgLatency); ok {
		d = ml.DelayMsg(m, n.cfg.Rand)
	} else {
		d = n.cfg.Latency.Delay(m.From, m.To, n.cfg.Rand)
	}
	if d <= 0 {
		d = 1
	}
	if d > n.cfg.T {
		d = n.cfg.T
	}

	cross := n.crossesAny(m.From, m.To)
	n.trace(msgEvent(trace.Send, now, int(m.From), m, cross))

	// Crossing time X = s + f*d; blocked iff some partition separating the
	// endpoints is active at X.
	crossAt := now + sim.Time(float64(d)*n.cfg.BoundaryFrac+0.5)
	if crossAt <= now {
		crossAt = now + 1
	}
	if n.separatedAt(m.From, m.To, crossAt) {
		if n.cfg.Mode == Pessimistic {
			n.sched.At(crossAt, sim.PriDeliver, func() {
				n.dropped++
				n.trace(msgEvent(trace.Drop, n.sched.Now(), int(m.To), m, true))
			})
			return
		}
		// Return trip: same distance back to the sender.
		back := crossAt + (crossAt - now)
		if back <= crossAt {
			back = crossAt + 1
		}
		n.sched.At(back, sim.PriDeliver, func() {
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

	arrival := now + sim.Time(d)
	n.sched.At(arrival, sim.PriDeliver, func() {
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

func (n *Network) schedulePartitionEdges(p *Partition) {
	now := n.sched.Now()
	if at := p.At; at >= now {
		n.sched.At(at, sim.PriPartition, func() {
			n.trace(trace.Event{At: n.sched.Now(), Kind: trace.PartitionOn, Detail: p.describe()})
		})
	}
	if p.Heal > p.At && p.Heal >= now {
		n.sched.At(p.Heal, sim.PriPartition, func() {
			n.trace(trace.Event{At: n.sched.Now(), Kind: trace.PartitionOff})
		})
	}
}

func (p *Partition) describe() string {
	ids := make([]int, 0, len(p.G2))
	for id := range p.G2 {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	return fmt.Sprintf("G2=%v", ids)
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

// G2Set builds a Partition group set from site IDs.
func G2Set(ids ...proto.SiteID) map[proto.SiteID]bool {
	g := make(map[proto.SiteID]bool, len(ids))
	for _, id := range ids {
		g[id] = true
	}
	return g
}
