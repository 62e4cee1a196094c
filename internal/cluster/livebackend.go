package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/lease"
	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// LiveOptions tunes the goroutine backend.
type LiveOptions struct {
	// T is the wall-clock value of the longest end-to-end delay bound;
	// defaults to 10ms. Schedule and Txn times in ticks map onto wall
	// time as sim.DefaultT ticks = T.
	T time.Duration
	// WaitTimeout bounds each Wait call: transactions still undecided
	// when it elapses are reported blocked, which is exactly what a
	// blocking protocol under a partition produces. Defaults to 300*T.
	WaitTimeout time.Duration
	// Seed drives the link-delay generator.
	Seed int64
}

// LiveBackend runs every site as a real goroutine: one site.Loop per site
// — the loop a termnode daemon runs — joined by in-process site.Links that
// apply the wall-clock network model and hand frames straight to the
// destination's inbox. Faults are injected in real time: a partition is a
// pair of blocklists, a crash closes the site's loop, a recovery starts a
// fresh loop over the same database (what a process restart is). Outcomes
// are timing-dependent — the price of genuine concurrency; safety
// (atomicity, termination) must hold regardless.
type LiveBackend struct {
	opts      LiveOptions
	cfg       Config
	startedAt time.Time
	// links is every provisioned site's end of the network, fixed at Open:
	// a link outlives the loops behind it, so counters and blocklists
	// survive a restart.
	links map[proto.SiteID]*site.Link

	mu sync.Mutex
	// loops holds the running sites; a dormant, retired or crashed site
	// has none, and messages to it are lost.
	loops map[proto.SiteID]*site.Loop
	// crashed marks failed sites, remembering whether a loop was running
	// to restart at recovery.
	crashed map[proto.SiteID]bool
	// spawned counts the automata of loop incarnations already closed.
	spawned    map[proto.SiteID]int
	txns       map[proto.TxnID]*liveTxn
	unsettled  []*liveTxn // what Wait still polls
	partGen    int        // bumped per partition change: stale auto-heals are dropped
	recoveries []RecoveryReport
	// unresolved tracks, per site, in-doubt transactions a recovery could
	// not resolve; heals re-run the inquiry round for them.
	unresolved map[proto.SiteID][]engine.InDoubt
	subWG      sync.WaitGroup
	// recWG tracks scheduled EvRecover events under Config.Recovery and
	// all membership events (join/leave/move), so Wait covers the durable
	// recoveries and migrations the timeline promises — matching the sim
	// backend, whose Wait runs the schedule to quiescence.
	recWG  sync.WaitGroup
	closed bool
	// leases is the partition-local availability bookkeeping (nil when
	// Config.LeaseTTL is unset or there is no directory). lease.Table
	// locks internally, so the concurrent site goroutines are safe.
	leases *leaseKeeper
}

// liveTxn is the backend's record of one submitted transaction. view
// mirrors res.Sites under b.mu — decisions land in it as the site loops
// report them, crashes as they are injected — and Wait copies it out, so
// results are never written while a caller may be reading them.
type liveTxn struct {
	t    Txn
	res  *TxnResult
	view map[proto.SiteID]*SiteOutcome
	// firedAt is when the (possibly delayed) submission reached its
	// master; zero before that. noop marks a submission nothing will ever
	// decide: a dead master, or a roster shrunk below two by crashes.
	firedAt time.Time
	noop    bool
}

// NewLiveBackend returns a goroutine-runtime backend.
func NewLiveBackend(opts LiveOptions) *LiveBackend {
	if opts.T <= 0 {
		opts.T = 10 * time.Millisecond
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 300 * opts.T
	}
	return &LiveBackend{
		opts:       opts,
		links:      make(map[proto.SiteID]*site.Link),
		loops:      make(map[proto.SiteID]*site.Loop),
		crashed:    make(map[proto.SiteID]bool),
		spawned:    make(map[proto.SiteID]int),
		txns:       make(map[proto.TxnID]*liveTxn),
		unresolved: make(map[proto.SiteID][]engine.InDoubt),
	}
}

// Name implements Backend.
func (b *LiveBackend) Name() string { return "live" }

// AutomataSpawned returns how many protocol automata each site has
// instantiated over the backend's lifetime — parity with the sim
// backend's placement observable.
func (b *LiveBackend) AutomataSpawned() map[proto.SiteID]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[proto.SiteID]int, len(b.links))
	for id := range b.links {
		out[id] = b.spawned[id]
		if lp := b.loops[id]; lp != nil {
			out[id] += len(lp.Txns())
		}
	}
	return out
}

// wall converts timeline ticks to wall time (sim.DefaultT ticks = T).
func (b *LiveBackend) wall(t sim.Time) time.Duration {
	return time.Duration(t) * b.opts.T / time.Duration(sim.DefaultT)
}

var errSiteDown = errors.New("live backend: site down")

// Open implements Backend.
func (b *LiveBackend) Open(cfg Config) error {
	if !b.startedAt.IsZero() {
		return fmt.Errorf("live backend: already open")
	}
	b.cfg = cfg
	b.startedAt = time.Now()
	b.leases = newLeaseKeeper(cfg, nil)
	b.leases.seed(0)
	for i := 1; i <= cfg.Sites; i++ {
		id := proto.SiteID(i)
		seed := b.opts.Seed
		if seed != 0 {
			seed += int64(id)
		}
		b.links[id] = site.NewLink(id, b.opts.T, seed,
			func(m proto.Msg) {
				if lp := b.loop(id); lp != nil {
					lp.Deliver(m)
				}
			},
			func(m proto.Msg) error {
				if b.loop(m.To) == nil {
					return errSiteDown
				}
				b.links[m.To].Receive(m)
				return nil
			})
		if cfg.metrics != nil {
			b.links[id].Late = cfg.metrics.reg.Histogram(obs.MLinkCrossLate)
		}
	}
	b.mu.Lock()
	for id := range b.links {
		// Provisioned sites outside the initial membership stay dormant:
		// their loops spawn when (if) they join.
		if d := cfg.Directory; d != nil {
			if _, asg := d.Current(); !asg.IsMember(id) {
				continue
			}
		}
		b.startSiteLocked(id)
	}
	b.mu.Unlock()
	for _, ev := range b.cfg.Schedule.Sorted() {
		b.scheduleEvent(ev)
	}
	return nil
}

// loop returns a site's running loop, nil when it has none.
func (b *LiveBackend) loop(id proto.SiteID) *site.Loop {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loops[id]
}

// startSiteLocked launches one incarnation of a site's loop over its
// database. Called with b.mu held.
func (b *LiveBackend) startSiteLocked(id proto.SiteID) {
	lp := site.NewLoop(site.Options{
		ID: id, Protocol: b.cfg.Protocol, T: b.opts.T,
		Participant: b.cfg.Participants[id], OnDecide: b.onDecide,
	})
	lp.Start(b.links[id])
	b.loops[id] = lp
}

// stopSite closes a site's loop, if it runs one, and folds what the
// incarnation hosted into the backend's records: its automaton count, and
// — when the stop is a crash — every transaction it had not decided,
// which settles as crashed in the state the automaton died in.
func (b *LiveBackend) stopSite(id proto.SiteID, crash bool) {
	b.mu.Lock()
	lp := b.loops[id]
	delete(b.loops, id)
	if crash {
		if _, already := b.crashed[id]; !already {
			b.crashed[id] = lp != nil
		}
	}
	b.mu.Unlock()
	if lp == nil {
		return
	}
	lp.Close() // outside b.mu: the loop may be inside onDecide
	hosted := lp.Txns()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spawned[id] += len(hosted)
	for _, st := range hosted {
		if t := b.txns[st.TID]; crash && t != nil && st.Outcome == proto.None {
			*t.view[id] = SiteOutcome{FinalState: st.State, Started: true, Crashed: true}
		}
	}
}

// onDecide is every site loop's decision hook. It runs on the deciding
// site's goroutine: the lease renewal and the migration machinery's
// per-transaction hook come first, so a Wait that observes the decision
// also observes their effects.
func (b *LiveBackend) onDecide(cfg proto.Config, o proto.Outcome, _ sim.Time) {
	b.leases.onDecide(cfg.Self, cfg.Payload, o, b.Now())
	b.mu.Lock()
	t := b.txns[cfg.TID]
	b.mu.Unlock()
	if t == nil {
		return
	}
	if t.t.onDecided != nil {
		t.t.onDecided(cfg.Self, o)
	}
	b.mu.Lock()
	if v := t.view[cfg.Self]; v != nil {
		v.Outcome, v.DecidedAt, v.Started = o, b.Now(), true
	}
	b.mu.Unlock()
}

// setPartition separates the sites in g2 from the rest (the paper's G2);
// an empty g2 heals.
func (b *LiveBackend) setPartition(g2 []proto.SiteID) {
	for id, link := range b.links {
		var blocked []proto.SiteID
		for peer := range b.links {
			if containsSite(g2, id) != containsSite(g2, peer) {
				blocked = append(blocked, peer)
			}
		}
		link.SetBlocked(blocked)
	}
}

// reachable reports whether a message between a and b would currently be
// delivered: both sites running and on the same side of any partition. It
// is the bulk-transfer admission check for recovery catch-up (state pulls
// are modeled as a direct channel rather than per-key messages).
func (b *LiveBackend) reachable(a, z proto.SiteID) bool {
	return b.loop(a) != nil && b.loop(z) != nil && !b.links[a].Blocked(z)
}

func (b *LiveBackend) scheduleEvent(ev Event) {
	done := b.trackRecovery(ev)
	time.AfterFunc(b.wall(ev.At), func() { b.apply(ev); done() })
}

// trackRecovery registers a scheduled event Wait must not outrun: an
// EvRecover under durable recovery, or any membership event (whose
// epoch-bump transaction must be submitted before Wait collects the
// roster). Returns the completion callback (a no-op for other events).
func (b *LiveBackend) trackRecovery(ev Event) func() {
	switch ev.Kind {
	case EvRecover, EvHeal:
		// Heals matter to Wait only for the retry pass they trigger.
		if !b.cfg.Recovery {
			return func() {}
		}
	case EvJoin, EvLeave, EvMove:
	default:
		return func() {}
	}
	b.recWG.Add(1)
	var once sync.Once
	return func() { once.Do(b.recWG.Done) }
}

func (b *LiveBackend) apply(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	switch ev.Kind {
	case EvPartition:
		b.partGen++
		gen := b.partGen
		b.mu.Unlock()
		b.setPartition(ev.G2)
		if ev.Heal > ev.At {
			time.AfterFunc(b.wall(ev.Heal-ev.At), func() {
				b.mu.Lock()
				stale := b.closed || gen != b.partGen
				b.mu.Unlock()
				if !stale {
					b.setPartition(nil)
					b.retryUnresolved()
				}
			})
		}
	case EvHeal:
		b.partGen++
		b.mu.Unlock()
		b.setPartition(nil)
		b.retryUnresolved()
	case EvCrash:
		b.mu.Unlock()
		b.stopSite(ev.Site, true)
	case EvRecover:
		// The site rejoins as a fresh incarnation: it participates in
		// transactions submitted from now on, and the automata it hosted
		// before the crash stay dead.
		if wasRunning, crashed := b.crashed[ev.Site]; crashed {
			delete(b.crashed, ev.Site)
			if wasRunning {
				b.startSiteLocked(ev.Site)
			}
		}
		b.mu.Unlock()
		if b.cfg.Recovery {
			b.runRecovery(ev.Site)
		}
	case EvJoin, EvLeave, EvMove:
		migrate := b.cfg.migrate
		b.mu.Unlock()
		if migrate != nil {
			migrate(ev)
		}
	default:
		b.mu.Unlock()
	}
}

// retryUnresolved re-runs the inquiry round after a heal for every site a
// recovery left with unresolved in-doubt transactions.
func (b *LiveBackend) retryUnresolved() {
	if !b.cfg.Recovery {
		return
	}
	b.mu.Lock()
	pending := make(map[proto.SiteID][]engine.InDoubt, len(b.unresolved))
	for id, pend := range b.unresolved {
		if len(pend) > 0 {
			pending[id] = pend
		}
	}
	b.mu.Unlock()
	for site, pend := range pending {
		peers := livePeers{backend: b, self: site}
		rep, remaining, resolved := runRetry(b.cfg, site, b.Now(), peers, pend)
		b.mu.Lock()
		b.unresolved[site] = remaining
		if resolved {
			b.recoveries = append(b.recoveries, rep)
		}
		b.mu.Unlock()
	}
}

// runRecovery executes a site's durable recovery over real traffic: each
// in-doubt inquiry is a MsgInquire that crosses (or bounces off) the
// actual partition state, and catch-up pulls from a currently reachable
// replica.
func (b *LiveBackend) runRecovery(site proto.SiteID) {
	peers := livePeers{backend: b, self: site}
	rep, ok := runRecovery(b.cfg, site, b.Now(), peers)
	if !ok {
		return // no engine: the site rejoins with amnesia
	}
	b.mu.Lock()
	b.recoveries = append(b.recoveries, rep)
	b.unresolved[site] = rep.Stats.Pending
	b.mu.Unlock()
}

// Peers implements Backend.
func (b *LiveBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return livePeers{backend: b, self: self}
}

// SpawnSite implements the siteLifecycle extension: a joining site's real
// goroutine loop comes up before any byte is copied to it. No-op for a
// site already running, crashed, or after Close.
func (b *LiveBackend) SpawnSite(id proto.SiteID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, crashed := b.crashed[id]
	if b.links[id] != nil && b.loops[id] == nil && !crashed && !b.closed {
		b.startSiteLocked(id)
	}
}

// RetireSite implements the siteLifecycle extension: a departed member's
// loop stops once the work it participated in has quiesced. The network
// treats a retired site like a down one; its durable state is untouched
// and a later SpawnSite revives it.
func (b *LiveBackend) RetireSite(id proto.SiteID) { b.stopSite(id, false) }

// livePeers is the goroutine-runtime PeerClient: inquiries are real
// messages subject to the partition controller, and catch-up pulls are a
// bulk-transfer channel gated by the same reachability.
type livePeers struct {
	backend *LiveBackend
	self    proto.SiteID
}

// Outcome implements recovery.PeerClient: one MsgInquire round trip from
// the recovering site's new loop.
func (p livePeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	if lp := p.backend.loop(p.self); lp != nil {
		return lp.Inquire(peer, proto.TxnID(tid))
	}
	return proto.None, false
}

// Snapshot implements recovery.PeerClient.
func (p livePeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	if !p.backend.reachable(p.self, peer) {
		return nil, nil, false
	}
	return donorSnapshot(p.backend.cfg, peer)
}

// Recoveries implements Backend.
func (b *LiveBackend) Recoveries() []RecoveryReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]RecoveryReport(nil), b.recoveries...)
}

// RecoveryCount implements Backend.
func (b *LiveBackend) RecoveryCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recoveries)
}

// Submit implements Backend. A future t.At is honored by delaying the
// submission on the wall clock.
func (b *LiveBackend) Submit(t Txn, res *TxnResult) error {
	if b.startedAt.IsZero() {
		return fmt.Errorf("live backend: not open")
	}
	lt := &liveTxn{t: t, res: res, view: make(map[proto.SiteID]*SiteOutcome, len(res.Sites))}
	for id, so := range res.Sites {
		v := *so
		lt.view[id] = &v
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("live backend: closed")
	}
	b.txns[t.ID] = lt
	b.unsettled = append(b.unsettled, lt)
	b.mu.Unlock()

	delay := b.wall(t.At) - time.Since(b.startedAt)
	if delay <= 0 {
		b.start(lt)
		return nil
	}
	b.subWG.Add(1)
	time.AfterFunc(delay, func() {
		defer b.subWG.Done()
		b.start(lt)
	})
	return nil
}

// start hands a transaction to its master's loop. The roster is the
// participant set Cluster.Submit resolved minus the sites dead at this
// moment — a coordinator does not invite sites it knows are down, matching
// the sim backend — and a dead master makes the transaction a recorded
// no-op. Scripted votes are resolved here into the no-vote list the
// MsgXact envelope carries (a closure cannot ride it); a site with a
// database votes by executing, as on the sim backend.
func (b *LiveBackend) start(lt *liveTxn) {
	t := lt.t
	spec := site.Spec{TID: t.ID, Master: t.Master, Payload: t.Payload}
	votes := t.Votes
	if votes == nil {
		votes = b.cfg.Votes
	}
	b.mu.Lock()
	for _, id := range t.Sites {
		if _, down := b.crashed[id]; down {
			lt.view[id].Crashed = true
			continue
		}
		spec.Sites = append(spec.Sites, id)
		if votes != nil && b.cfg.Participants[id] == nil && !votes(id, t.ID, t.Payload) {
			spec.NoVotes = append(spec.NoVotes, id)
		}
	}
	master := b.loops[t.Master]
	// A roster that is a single site by placement (not attrition) takes
	// the local-commit fast path.
	lt.noop = b.closed || master == nil || len(spec.Sites) < min(2, len(t.Sites))
	lt.firedAt = time.Now()
	b.mu.Unlock()
	if !lt.noop {
		master.Submit(spec)
	}
}

// Wait implements Backend: it waits (bounded by WaitTimeout) for every
// submitted transaction to settle at every live participating site and
// for every scheduled durable recovery to finish, then syncs all results.
// Transactions still undecided are reported blocked.
func (b *LiveBackend) Wait() error {
	if b.startedAt.IsZero() {
		return fmt.Errorf("live backend: not open")
	}
	b.subWG.Wait()
	b.recWG.Wait()
	deadline := time.Now().Add(b.opts.WaitTimeout)
	for !b.settled() && time.Now().Before(deadline) {
		time.Sleep(b.opts.T / 2)
	}
	b.sync()
	return nil
}

// settled reports whether every transaction has terminated at every live
// participant, dropping the ones that have from the poll list. A site
// that learned of a transaction must have decided it; a site that never
// did — its MsgXact bounced off a partition, or its master aborted before
// inviting anyone — is given a 10T delivery grace after submission (a
// delayed MsgXact plus the whole protocol fits well inside it) before
// silence is taken as final.
func (b *LiveBackend) settled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	pending := b.unsettled[:0]
	for _, lt := range b.unsettled {
		if !b.settledLocked(lt) {
			pending = append(pending, lt)
		}
	}
	clear(b.unsettled[len(pending):])
	b.unsettled = pending
	return len(pending) == 0
}

func (b *LiveBackend) settledLocked(lt *liveTxn) bool {
	if lt.firedAt.IsZero() {
		return false // the delayed submission has not reached its master yet
	}
	if lt.noop {
		return true
	}
	for id, v := range lt.view {
		lp := b.loops[id]
		if v.Outcome != proto.None || v.Crashed || lp == nil {
			continue
		}
		if _, started := lp.Txn(lt.t.ID); started || time.Since(lt.firedAt) < 10*b.opts.T {
			return false
		}
	}
	return true
}

// sync copies the backend's bookkeeping into the result handles, adding
// what only the running loops know: which sites learned of a transaction
// and the state their automaton is in.
func (b *LiveBackend) sync() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for tid, lt := range b.txns {
		for id, v := range lt.view {
			if lp := b.loops[id]; lp != nil {
				if st, ok := lp.Txn(tid); ok {
					v.Started, v.FinalState = true, st.State
				}
			}
			*lt.res.Sites[id] = *v
		}
	}
}

// Inject implements Backend: the event fires at its timeline position (or
// immediately if that is already past).
func (b *LiveBackend) Inject(ev Event) error {
	if b.startedAt.IsZero() {
		return fmt.Errorf("live backend: not open")
	}
	done := b.trackRecovery(ev)
	delay := b.wall(ev.At) - time.Since(b.startedAt)
	if delay <= 0 {
		b.apply(ev)
		done()
		return nil
	}
	time.AfterFunc(delay, func() { b.apply(ev); done() })
	return nil
}

// Now implements Backend: wall time since start, in ticks.
func (b *LiveBackend) Now() sim.Time {
	if b.startedAt.IsZero() {
		return 0
	}
	return sim.Time(time.Since(b.startedAt) * time.Duration(sim.DefaultT) / b.opts.T)
}

// NetStats implements Backend.
func (b *LiveBackend) NetStats() NetStats {
	var st NetStats
	for _, link := range b.links {
		sent, delivered, bounced, dropped := link.Counters()
		st.MsgsSent += sent
		st.MsgsDelivered += delivered
		st.MsgsBounced += bounced
		st.MsgsDropped += dropped
	}
	return st
}

// Close implements Backend: fills the final automaton states into all
// results and stops the site goroutines.
func (b *LiveBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.subWG.Wait()
	b.sync()
	for id, link := range b.links {
		link.Close()
		b.stopSite(id, false)
	}
	return nil
}

// LeaseTable implements the cluster's leaseTables extension: one site's
// shard-lease table, nil when leasing is disabled.
func (b *LiveBackend) LeaseTable(site proto.SiteID) *lease.Table {
	return b.leases.table(site)
}

var _ Backend = (*LiveBackend)(nil)
