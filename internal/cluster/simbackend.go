package cluster

import (
	"fmt"

	"termproto/internal/obs"
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
	// TimersFirst flips the scheduler's same-timestamp ordering so timers
	// beat deliveries — experiment E15(d)'s ablation of the tie-break rule.
	TimersFirst bool
}

// SimBackend multiplexes any number of concurrent transactions over one
// deterministic discrete-event timeline: a single scheduler and a single
// partitionable network shared by all transactions, and per site one
// site.Node — the assembly a daemon's loop steps — stepped by the
// scheduler. Runs are pure functions of (config, submissions, schedule,
// seed).
type SimBackend struct {
	opts  SimOptions
	cfg   Config
	sched *sim.Scheduler
	net   *simnet.Network
	rec   *trace.Recorder
	// site is what every incarnation of every site shares: the clock, the
	// network, the trace sink and the decision hook.
	site site.Site
	// nodes holds each site's running incarnation; a crash retires it.
	nodes map[proto.SiteID]*site.Node
	// regs holds each site's metrics registry, shared by its incarnations.
	regs map[proto.SiteID]*obs.Registry
	// engines reports whether any site's participant is a storage engine:
	// only then can a heal edge find anything in doubt.
	engines bool
	// spawned counts the automata of incarnations already retired.
	spawned map[proto.SiteID]int
	// pending holds the transactions started since the last Wait: their
	// results are copied out of the nodes by a crash or by that Wait.
	pending map[proto.TxnID]pendingTxn
	// recoveries records the durable recoveries run.
	recoveries []RecoveryReport
}

// NewSimBackend returns a deterministic simulator backend.
func NewSimBackend(opts SimOptions) *SimBackend {
	if opts.T <= 0 {
		opts.T = sim.DefaultT
	}
	return &SimBackend{
		opts:    opts,
		nodes:   make(map[proto.SiteID]*site.Node),
		regs:    make(map[proto.SiteID]*obs.Registry),
		spawned: make(map[proto.SiteID]int),
		pending: make(map[proto.TxnID]pendingTxn),
	}
}

// pendingTxn is a started transaction's result and decision hook.
type pendingTxn struct {
	res       *TxnResult
	onDecided func(site proto.SiteID, o proto.Outcome)
}

// AutomataSpawned returns how many protocol automata the backend has
// instantiated at each site over its lifetime. Under sharded placement
// only a transaction's participants spawn automata, so these counters
// expose the placement decisions.
func (b *SimBackend) AutomataSpawned() map[proto.SiteID]int {
	out := make(map[proto.SiteID]int, len(b.nodes))
	for id, n := range b.nodes {
		out[id] = b.spawned[id] + len(n.Txns())
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
	b.sched.SetTimersFirst(b.opts.TimersFirst)
	if b.opts.RecordTrace {
		b.rec = &trace.Recorder{}
	}
	b.net = simnet.New(simnet.Config{
		Sched:        b.sched,
		T:            b.opts.T,
		Latency:      b.opts.Latency,
		BoundaryFrac: b.opts.BoundaryFrac,
		Mode:         b.opts.Mode,
		Rand:         sim.NewRand(b.opts.Seed + 1),
		Trace:        b.rec,
	})
	rest := cfg.Schedule.compile(b.net.Cut)
	b.site = site.Site{Clock: site.SchedClock{Sched: b.sched, Bound: b.opts.T}, Transport: b.net, OnDecide: b.onDecide}
	if b.rec != nil {
		b.site.Trace = b.rec.Append
	}
	for _, id := range allSites(cfg.Sites) {
		b.regs[id] = obs.New()
		b.nodes[id] = b.newNode(id)
		b.nodes[id].InstallPlacement()
		b.engines = b.engines || b.nodes[id].Engine() != nil
		b.net.Register(id, running{b, id})
	}
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
	// An edge that ends a boundary re-runs the inquiry round for in-doubt
	// transactions a recovery left unresolved behind it.
	cuts := b.net.Cuts()
	for i := 1; i < len(cuts); i++ {
		if len(cuts[i-1].S) > 0 {
			b.scheduleHealRetry(cuts[i].From)
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

// scheduleHealRetry re-runs the inquiry round at a heal edge at every site
// that is up, in ascending order, and reports each round that resolved
// something once it ends. Without engines nothing can be in doubt, and no
// event is scheduled.
func (b *SimBackend) scheduleHealRetry(at sim.Time) {
	if !b.engines {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() {
		for _, id := range allSites(b.cfg.Sites) {
			if b.net.Crashed(id, at) {
				continue // a crashed site sits the round out
			}
			b.nodes[id].RetryInDoubt(func(st recovery.Stats, ran bool) {
				if ran && st.ResolvedCommit+st.ResolvedAbort > 0 {
					b.recoveries = append(b.recoveries, RecoveryReport{Site: id, At: at, Done: b.sched.Now(), Stats: st, Retry: true})
				}
			})
		}
	})
}

// scheduleRecover restores the site's network liveness at time at and,
// for a site with an engine, starts its recovery at the same tick, before
// anything is delivered to it. The report is appended when the recovery
// finishes; a crash before then leaves none.
func (b *SimBackend) scheduleRecover(id proto.SiteID, at sim.Time) {
	b.net.RecoverAt(id, at)
	if b.nodes[id].Engine() == nil {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriRestart, func() {
		b.nodes[id].Recover(func(st recovery.Stats, err error) {
			b.recoveries = append(b.recoveries, RecoveryReport{Site: id, At: at, Done: b.sched.Now(), Stats: st, Err: err})
		})
	})
}

// running is how the network reaches a site: through whichever
// incarnation of it is running.
type running struct {
	b  *SimBackend
	id proto.SiteID
}

// Deliver implements simnet.Handler.
func (r running) Deliver(m proto.Msg) { r.b.nodes[r.id].Deliver(m) }

// Undeliverable implements simnet.Handler.
func (r running) Undeliverable(m proto.Msg) { r.b.nodes[r.id].Undeliverable(m) }

// newNode builds one incarnation of a site on the scheduler's clock.
func (b *SimBackend) newNode(id proto.SiteID) *site.Node {
	s := b.site
	s.ID, s.Participant = id, b.cfg.Participants[id]
	return site.NewNode(s, b.cfg.Protocol, allSites(b.cfg.Sites), b.cfg.Directory, b.regs[id])
}

func (b *SimBackend) scheduleCrash(id proto.SiteID, at sim.Time) {
	b.net.CrashAt(id, at)
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriPartition, func() { b.crash(id) })
}

// crash fails the site, as a loop close does: its incarnation is retired —
// the network already drops what is addressed to a down site, and closing
// the node silences its timers — and a fresh one over the same participant
// waits for the recovery.
// Every started transaction the site was invited to settles as crashed in
// the state the site's automaton died in (or never learned of it).
func (b *SimBackend) crash(id proto.SiteID) {
	old := b.nodes[id]
	old.Close()
	b.spawned[id] += len(old.Txns())
	for tid, p := range b.pending {
		if out := p.res.Sites[id]; out != nil && !out.Crashed {
			copyView(out, old, tid)
			out.Crashed = true
		}
	}
	b.nodes[id] = b.newNode(id)
}

// copyView copies an incarnation's view of a transaction into its result
// slot.
func copyView(out *SiteOutcome, n *site.Node, tid proto.TxnID) {
	if st, ok := n.Table.Txn(tid); ok {
		out.Started, out.FinalState, out.Outcome, out.DecidedAt = true, st.State, st.Outcome, st.DecidedAt
	}
}

// Submit implements Backend: the transaction is handed to its master at
// max(now, t.At), with the roster of that moment.
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
	now := b.sched.Now()
	spec, absent, ok := invite(b.cfg, t, func(id proto.SiteID) bool { return b.net.Crashed(id, now) })
	for _, id := range absent {
		res.Sites[id].Crashed = true
	}
	if ok {
		b.pending[t.ID] = pendingTxn{res: res, onDecided: t.onDecided}
		b.nodes[t.Master].Submit(spec)
	}
}

// invite is the roster rule of every backend, applied when a submission
// reaches its master: the roster is the transaction's participant set
// (Cluster.Submit resolved it through the Directory) minus the sites down
// at that moment — a coordinator does not invite sites it knows are down
// — and absent lists those. Scripted votes are resolved into the no-vote
// list the MsgXact envelope carries (a closure cannot ride it); a site
// with a database votes by executing. ok is false for a recorded no-op: a
// dead master, or a roster that crashes shrank below two. (A roster that
// is a single site by placement, not attrition, takes the local-commit
// fast path: no protocol round, nothing a partition can block.)
func invite(cfg Config, t Txn, down func(proto.SiteID) bool) (spec site.Spec, absent []proto.SiteID, ok bool) {
	spec = site.Spec{TID: t.ID, Master: t.Master, Payload: t.Payload}
	votes := t.Votes
	if votes == nil {
		votes = cfg.Votes
	}
	for _, id := range t.Sites {
		if down(id) {
			absent = append(absent, id)
			continue
		}
		spec.Sites = append(spec.Sites, id)
		if votes != nil && cfg.Participants[id] == nil && !votes(id, t.ID, t.Payload) {
			spec.NoVotes = append(spec.NoVotes, id)
		}
	}
	return spec, absent, !down(t.Master) && len(spec.Sites) >= min(2, len(t.Sites))
}

// onDecide is every site's decision hook: it runs the migration
// machinery's per-transaction hook.
func (b *SimBackend) onDecide(cfg proto.Config, o proto.Outcome, _ sim.Time) {
	if p := b.pending[cfg.TID]; p.onDecided != nil {
		p.onDecided(cfg.Self, o)
	}
}

// Wait implements Backend: it drives the scheduler to quiescence — every
// message delivered or bounced, every timer fired or cancelled — and then
// copies every started transaction's view out of the site nodes.
// Quiescence with an undecided automaton is the definition of blocking.
func (b *SimBackend) Wait() error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	b.sched.Run()
	for tid, p := range b.pending {
		for id, out := range p.res.Sites {
			if !out.Crashed {
				copyView(out, b.nodes[id], tid)
			}
		}
	}
	clear(b.pending)
	return nil
}

// Inject implements Backend. A message is judged at send time against
// the timeline known then, so the event affects messages sent after the
// current timeline position; for a timeline known in advance that is the
// judgement the crossing instant would give.
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
		ev.cut(at, b.net.Cut)
		if ev.Heal > at {
			b.scheduleHealRetry(ev.Heal)
		}
	case EvHeal:
		ev.cut(at, b.net.Cut)
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

// MetricsSnapshots implements Backend: one snapshot per site registry,
// each covering every incarnation of the site.
func (b *SimBackend) MetricsSnapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, 0, len(b.regs))
	for _, id := range allSites(len(b.regs)) {
		out = append(out, b.regs[id].Snapshot())
	}
	return out
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

// RunOne runs a single transaction on a fresh SimBackend cluster until the
// scheduler quiesces, and returns the transaction's result with the backend
// that ran it, whose Trace, NetStats and Now describe the run. It is the
// one-shot entry point of the sweeps, the experiments and the protocol
// tests; cfg.Backend is ignored. RunOne panics on a configuration Open or
// Submit rejects: its callers build the configuration in code, so a
// rejected one is a bug in the caller.
func RunOne(cfg Config, opts SimOptions, t Txn) (*TxnResult, *SimBackend) {
	b := NewSimBackend(opts)
	cfg.Backend = b
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	res, err := c.Submit(t)
	if err != nil {
		panic(err)
	}
	if err := c.Wait(); err != nil {
		panic(err)
	}
	return res, b
}

var _ Backend = (*SimBackend)(nil)
