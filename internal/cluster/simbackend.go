package cluster

import (
	"fmt"
	"slices"

	"termproto/internal/lease"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/site"
	"termproto/internal/trace"
)

// SimOptions tunes the deterministic backend.
type SimOptions struct {
	// T is the longest end-to-end delay bound in ticks; defaults to
	// sim.DefaultT.
	T sim.Duration
	// Latency produces per-message forward delays; defaults to the
	// adversarial Fixed{T}.
	Latency simnet.Latency
	// BoundaryFrac is the partition-boundary position (see simnet).
	BoundaryFrac float64
	// Mode selects the partition failure model (optimistic default).
	Mode simnet.Mode
	// Seed drives the latency model's randomness.
	Seed uint64
	// RecordTrace keeps the full execution trace (off by default: traces
	// of big multiplexed runs are large).
	RecordTrace bool
}

// SimBackend multiplexes any number of concurrent transactions over one
// deterministic discrete-event timeline: a single scheduler and a single
// partitionable network shared by all transactions, one automaton per
// (site, transaction) pair, each with its own timer. Runs are pure
// functions of (config, submissions, schedule, seed).
type SimBackend struct {
	opts  SimOptions
	cfg   Config
	sched *sim.Scheduler
	net   *simnet.Network
	rec   *trace.Recorder
	muxes map[proto.SiteID]*siteMux
	// spawned counts automata instantiated per site over the backend's
	// lifetime — the observable for asserting sharded placement.
	spawned map[proto.SiteID]int
	// openPartition is the schedule's unhealed partition, if any, so an
	// injected EvHeal can close it.
	openPartition *simnet.Partition
	// recoveries records the durable recoveries run (Config.Recovery).
	recoveries []RecoveryReport
	// unresolved is what recoveries could not resolve, for the heal edges.
	unresolved unresolved
	// leases is the partition-local availability bookkeeping (nil when
	// Config.LeaseTTL is unset or there is no directory).
	leases *leaseKeeper
}

// NewSimBackend returns a deterministic simulator backend.
func NewSimBackend(opts SimOptions) *SimBackend {
	if opts.T <= 0 {
		opts.T = sim.DefaultT
	}
	return &SimBackend{
		opts:    opts,
		muxes:   make(map[proto.SiteID]*siteMux),
		spawned: make(map[proto.SiteID]int),
	}
}

// AutomataSpawned returns how many protocol automata the backend has
// instantiated at each site over its lifetime. Under sharded placement
// only a transaction's participants spawn automata, so these counters
// expose the placement decisions.
func (b *SimBackend) AutomataSpawned() map[proto.SiteID]int {
	out := make(map[proto.SiteID]int, len(b.spawned))
	for id, n := range b.spawned {
		out[id] = n
	}
	return out
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// Trace returns the execution trace (nil unless RecordTrace was set).
func (b *SimBackend) Trace() *trace.Recorder { return b.rec }

// Open implements Backend.
func (b *SimBackend) Open(cfg Config) error {
	if b.sched != nil {
		return fmt.Errorf("sim backend: already open")
	}
	b.cfg = cfg
	b.sched = sim.NewScheduler()
	if b.opts.RecordTrace {
		b.rec = &trace.Recorder{}
	}
	parts, open, rest := cfg.Schedule.compile()
	b.openPartition = open
	b.net = simnet.New(simnet.Config{
		Sched:        b.sched,
		T:            b.opts.T,
		Latency:      b.opts.Latency,
		BoundaryFrac: b.opts.BoundaryFrac,
		Mode:         b.opts.Mode,
		Partitions:   parts,
		Rand:         sim.NewRand(b.opts.Seed + 1),
		Trace:        b.rec,
	})
	var sink func(trace.Event)
	if b.rec != nil {
		sink = b.rec.Append
	}
	for i := 1; i <= cfg.Sites; i++ {
		id := proto.SiteID(i)
		m := &siteMux{
			Site: site.Site{
				ID: id, Clock: site.SchedClock{Sched: b.sched, Bound: b.opts.T}, Transport: b.net,
				Participant: cfg.Participants[id], Trace: sink, OnDecide: b.onDecide,
			},
			txns: make(map[proto.TxnID]*simTxn),
		}
		b.muxes[id] = m
		b.net.Register(id, m)
	}
	b.leases = newLeaseKeeper(cfg, b.rec)
	b.leases.seed(b.sched.Now())
	for _, ev := range rest {
		switch ev.Kind {
		case EvCrash:
			b.scheduleCrash(ev.Site, ev.At)
		case EvRecover:
			b.scheduleRecover(ev.Site, ev.At)
		case EvJoin, EvLeave, EvMove:
			b.scheduleMembership(ev)
		}
	}
	// Heal edges re-run the inquiry round for in-doubt transactions a
	// recovery left unresolved behind the partition.
	for _, p := range parts {
		if p.Heal > 0 {
			b.scheduleHealRetry(p.Heal)
		}
	}
	return nil
}

// scheduleMembership runs a join/leave/move migration at its exact tick.
// PriControl orders it after the tick's partition and liveness edges, so
// the copy sees the network state the schedule declares for that moment.
func (b *SimBackend) scheduleMembership(ev Event) {
	if b.cfg.migrate == nil {
		return
	}
	at := ev.At
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() { b.cfg.migrate(ev) })
}

// scheduleHealRetry re-runs the inquiry round at a heal edge for every
// site holding unresolved in-doubt transactions (Config.Recovery only).
func (b *SimBackend) scheduleHealRetry(at sim.Time) {
	if !b.cfg.Recovery {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() {
		now := b.sched.Now()
		// Ascending, for determinism; a crashed site sits the round out.
		up := slices.DeleteFunc(allSites(b.cfg.Sites), func(id proto.SiteID) bool { return b.net.Crashed(id, now) })
		b.recoveries = append(b.recoveries, b.unresolved.retry(b.cfg, up, now, b.Peers)...)
	})
}

// scheduleRecover restores the site's network liveness at time at and,
// under Config.Recovery, schedules the durable recovery to run at the
// same tick: the restart replays the site's log, resolves its in-doubt
// transactions by inquiry against the peers reachable at that moment,
// and catches up missed commits. PriControl orders it after the
// partition/liveness edges of the tick.
func (b *SimBackend) scheduleRecover(id proto.SiteID, at sim.Time) {
	b.net.RecoverAt(id, at)
	if !b.cfg.Recovery {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() {
		if rep, ok := b.unresolved.recover(b.cfg, id, b.sched.Now(), b.Peers(id)); ok {
			b.recoveries = append(b.recoveries, rep)
		}
	})
}

// Peers implements Backend.
func (b *SimBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return simPeers{backend: b, self: self}
}

// simPeers is the deterministic PeerClient: reachability is read off the
// partition/crash timeline at the current tick, and a reachable peer's
// durable state is consulted directly — an inquiry round abstracted to
// its outcome, fates identical to routing real messages under the
// optimistic model.
type simPeers struct {
	backend *SimBackend
	self    proto.SiteID
}

func (p simPeers) reachable(peer proto.SiteID) bool {
	now := p.backend.sched.Now()
	return !p.backend.net.Crashed(peer, now) && !p.backend.net.Separated(p.self, peer, now)
}

// Outcome implements recovery.PeerClient.
func (p simPeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	if !p.reachable(peer) {
		return proto.None, false
	}
	if eng, ok := recoveryEngine(p.backend.cfg, peer); ok {
		return eng.Outcome(tid)
	}
	return proto.None, false
}

// Snapshot implements recovery.PeerClient.
func (p simPeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	if !p.reachable(peer) {
		return nil, nil, false
	}
	return donorSnapshot(p.backend.cfg, peer)
}

func (b *SimBackend) scheduleCrash(id proto.SiteID, at sim.Time) {
	b.net.CrashAt(id, at)
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriPartition, b.muxes[id].crash)
}

// Submit implements Backend: the transaction's automata are instantiated
// and started at max(now, t.At) on every site live at that moment.
func (b *SimBackend) Submit(t Txn, res *TxnResult) error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	at := t.At
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() { b.startTxn(t, res) })
	return nil
}

func (b *SimBackend) startTxn(t Txn, res *TxnResult) {
	// The roster is the transaction's participant set (Cluster.Submit
	// resolved it through the ShardMap) minus the sites dead at start
	// time — a coordinator does not invite sites it knows are down. A
	// dead master makes the transaction a recorded no-op.
	now := b.sched.Now()
	traceQuorum(b.rec, b.cfg, t, func(id proto.SiteID) bool {
		return !b.net.Crashed(id, now) && !b.net.Separated(t.Master, id, now)
	}, now)
	sites := make([]proto.SiteID, 0, len(t.Sites))
	for _, id := range t.Sites {
		if b.net.Crashed(id, now) {
			res.Sites[id].Crashed = true
			continue
		}
		sites = append(sites, id)
	}
	// A transaction whose resolved participant set is a single site takes
	// the local-commit fast path: no protocol round, no messages, nothing
	// a partition can block. (Attrition from crashes does not qualify —
	// only genuine single-replica placement.)
	local := len(t.Sites) == 1
	minSites := 2
	if local {
		minSites = 1
	}
	if res.Sites[t.Master].Crashed || len(sites) < minSites {
		return
	}
	votes := t.Votes
	if votes == nil {
		votes = b.cfg.Votes
	}
	spec := site.Spec{TID: t.ID, Master: t.Master, Sites: sites, Votes: votes, Payload: t.Payload}
	for _, id := range sites {
		m := b.muxes[id]
		st := &simTxn{env: m.NewEnv(b.cfg.Protocol, spec), out: res.Sites[id], notify: t.onDecided}
		st.out.FinalState = st.env.State()
		m.txns[t.ID] = st
		b.spawned[id]++
	}
	// Start in site order after every automaton exists, so a master's
	// first sends find all handlers registered.
	for _, id := range sites {
		b.muxes[id].txns[t.ID].env.Start()
	}
}

// onDecide is every site's decision hook: it fills the transaction's
// result slot, runs the migration machinery's per-transaction hook, and
// renews the deciding site's shard leases.
func (b *SimBackend) onDecide(cfg proto.Config, o proto.Outcome, at sim.Time) {
	st := b.muxes[cfg.Self].txns[cfg.TID]
	st.out.Outcome, st.out.DecidedAt = o, at
	if st.notify != nil {
		st.notify(cfg.Self, o)
	}
	b.leases.onDecide(cfg.Self, cfg.Payload, o, at)
}

// Wait implements Backend: it drives the scheduler to quiescence — every
// message delivered or bounced, every timer fired or cancelled — and then
// finalizes all results. Quiescence with an undecided automaton is the
// definition of blocking.
//
// Finalized automata are pruned: at quiescence no event can ever reach
// them again (the queue is empty and TIDs are never reused), so a
// long-lived cluster's memory and per-Wait work stay proportional to the
// transactions of the current Wait, not the cluster's lifetime.
func (b *SimBackend) Wait() error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	b.sched.Run()
	for _, m := range b.muxes {
		for _, st := range m.txns {
			st.settle()
		}
		clear(m.txns)
	}
	return nil
}

// Inject implements Backend. Fate is computed at send time, so the event
// affects messages sent after the current timeline position.
func (b *SimBackend) Inject(ev Event) error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	now := b.sched.Now()
	at := ev.At
	if at < now {
		at = now
	}
	switch ev.Kind {
	case EvPartition:
		if b.openPartition != nil {
			closePartition(b.openPartition, at)
			b.openPartition = nil
		}
		if ev.Heal != 0 && ev.Heal <= at {
			return nil // its whole active window is in the past
		}
		p := &simnet.Partition{At: at, Heal: ev.Heal, G2: simnet.G2Set(ev.G2...)}
		b.net.AddPartition(p)
		if p.Heal == 0 {
			b.openPartition = p
		} else {
			b.scheduleHealRetry(p.Heal)
		}
	case EvHeal:
		if b.openPartition != nil {
			closePartition(b.openPartition, at)
			b.openPartition = nil
		}
		b.scheduleHealRetry(at)
	case EvCrash:
		b.scheduleCrash(ev.Site, at)
	case EvRecover:
		b.scheduleRecover(ev.Site, at)
	case EvJoin, EvLeave, EvMove:
		ev.At = at
		b.scheduleMembership(ev)
	default:
		return fmt.Errorf("sim backend: unknown event kind %d", ev.Kind)
	}
	return nil
}

// Recoveries implements Backend.
func (b *SimBackend) Recoveries() []RecoveryReport {
	return append([]RecoveryReport(nil), b.recoveries...)
}

// RecoveryCount implements Backend.
func (b *SimBackend) RecoveryCount() int { return len(b.recoveries) }

// Now implements Backend.
func (b *SimBackend) Now() sim.Time {
	if b.sched == nil {
		return 0
	}
	return b.sched.Now()
}

// NetStats implements Backend.
func (b *SimBackend) NetStats() NetStats {
	var st NetStats
	if b.net != nil {
		st.MsgsSent, st.MsgsDelivered, st.MsgsBounced, st.MsgsDropped = b.net.Stats()
	}
	return st
}

// Close implements Backend.
func (b *SimBackend) Close() error { return nil }

// LeaseTable implements the cluster's leaseTables extension: one site's
// shard-lease table, nil when leasing is disabled.
func (b *SimBackend) LeaseTable(site proto.SiteID) *lease.Table {
	return b.leases.table(site)
}

// siteMux is one site on the simulated timeline: the shared site runtime
// over the scheduler clock and the simulated network, demultiplexing the
// site's deliveries to its per-transaction automata.
type siteMux struct {
	site.Site
	txns map[proto.TxnID]*simTxn
}

// simTxn is one (site, transaction) automaton and its result slot.
type simTxn struct {
	env    *site.Env
	out    *SiteOutcome
	notify func(site proto.SiteID, o proto.Outcome)
}

// settle copies the automaton's final view into the result slot.
func (st *simTxn) settle() {
	st.out.FinalState, st.out.Started = st.env.State(), st.env.Started()
}

// Deliver implements simnet.Handler.
func (m *siteMux) Deliver(msg proto.Msg) {
	if st := m.txns[msg.TID]; st != nil {
		st.env.Deliver(msg)
	}
}

// Undeliverable implements simnet.Handler.
func (m *siteMux) Undeliverable(msg proto.Msg) {
	if st := m.txns[msg.TID]; st != nil {
		st.env.Undeliverable(msg)
	}
}

// crash fails the site: the automata it hosts settle as crashed and see
// no further events — the network already drops what is addressed to a
// down site, and closing them silences their timers. A recovered site
// starts over with an empty table (what a process restart is).
func (m *siteMux) crash() {
	for _, st := range m.txns {
		st.settle()
		st.out.Crashed = true
		st.env.Close()
	}
	clear(m.txns)
}

var _ Backend = (*SimBackend)(nil)
