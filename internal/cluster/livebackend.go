package cluster

import (
	"errors"
	"sync"
	"time"

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
	wallDriver
	opts LiveOptions
	// links is every provisioned site's end of the network, fixed at Open:
	// a link outlives the loops behind it, so counters and blocklists
	// survive a restart.
	links map[proto.SiteID]*site.Link

	lmu sync.Mutex // guards the site tables below; never held with the driver's
	// loops holds the running sites; a dormant, retired or crashed site
	// has none, and messages to it are lost.
	loops map[proto.SiteID]*site.Loop
	// crashed marks failed sites, remembering whether a loop was running
	// to restart at recovery.
	crashed map[proto.SiteID]bool
	// spawned counts the automata of loop incarnations already closed.
	spawned map[proto.SiteID]int
	// unresolved is what recoveries could not resolve, for the heals.
	unresolved unresolved
	// leases is the partition-local availability bookkeeping (nil when
	// Config.LeaseTTL is unset or there is no directory). lease.Table
	// locks internally, so the concurrent site goroutines are safe.
	leases *leaseKeeper
}

// NewLiveBackend returns a goroutine-runtime backend.
func NewLiveBackend(opts LiveOptions) *LiveBackend {
	if opts.T <= 0 {
		opts.T = 10 * time.Millisecond
	}
	b := &LiveBackend{
		opts:    opts,
		links:   make(map[proto.SiteID]*site.Link),
		loops:   make(map[proto.SiteID]*site.Loop),
		crashed: make(map[proto.SiteID]bool),
		spawned: make(map[proto.SiteID]int),
	}
	b.wallDriver = newWallDriver("live", opts.T, b)
	return b
}

// AutomataSpawned returns how many protocol automata each site has
// instantiated over the backend's lifetime — parity with the sim
// backend's placement observable.
func (b *LiveBackend) AutomataSpawned() map[proto.SiteID]int {
	b.lmu.Lock()
	defer b.lmu.Unlock()
	out := make(map[proto.SiteID]int, len(b.links))
	for id := range b.links {
		out[id] = b.spawned[id]
		if lp := b.loops[id]; lp != nil {
			out[id] += len(lp.Txns())
		}
	}
	return out
}

var errSiteDown = errors.New("live backend: site down")

// boot implements wallSites: a link per provisioned site, a loop per member.
func (b *LiveBackend) boot(cfg Config) error {
	b.leases = newLeaseKeeper(cfg, nil)
	b.leases.seed(0)
	for _, id := range allSites(cfg.Sites) {
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
	for id := range b.links {
		// Provisioned sites outside the initial membership stay dormant:
		// their loops spawn when (if) they join.
		if d := cfg.Directory; d != nil {
			if _, asg := d.Current(); !asg.IsMember(id) {
				continue
			}
		}
		b.SpawnSite(id)
	}
	return nil
}

// loop returns a site's running loop, nil when it has none.
func (b *LiveBackend) loop(id proto.SiteID) *site.Loop {
	b.lmu.Lock()
	defer b.lmu.Unlock()
	return b.loops[id]
}

// startSiteLocked launches one incarnation of a site's loop over its
// database. Called with b.lmu held.
func (b *LiveBackend) startSiteLocked(id proto.SiteID) {
	lp := site.NewLoop(site.Options{
		ID: id, Protocol: b.cfg.Protocol, T: b.opts.T,
		Participant: b.cfg.Participants[id], OnDecide: b.onDecide,
	})
	lp.Start(b.links[id])
	b.loops[id] = lp
}

// stopSite closes a site's loop, if it runs one, and returns what the
// incarnation hosted — also the count of automata it spawned.
func (b *LiveBackend) stopSite(id proto.SiteID, crash bool) []site.Status {
	b.lmu.Lock()
	lp := b.loops[id]
	delete(b.loops, id)
	if crash {
		if _, already := b.crashed[id]; !already {
			b.crashed[id] = lp != nil
		}
	}
	b.lmu.Unlock()
	if lp == nil {
		return nil
	}
	lp.Close() // outside b.lmu: the loop may be inside onDecide
	hosted := lp.Txns()
	b.lmu.Lock()
	b.spawned[id] += len(hosted)
	b.lmu.Unlock()
	return hosted
}

// crash implements wallSites.
func (b *LiveBackend) crash(id proto.SiteID) []site.Status { return b.stopSite(id, true) }

// onDecide is every site loop's decision hook. It runs on the deciding
// site's goroutine: the lease renewal and the migration machinery's
// per-transaction hook. The driver reads decisions off the loop's view,
// where Env.run publishes only after Decide — hence this hook — has
// returned, so a Wait that observes the decision also observes their
// effects.
func (b *LiveBackend) onDecide(cfg proto.Config, o proto.Outcome, _ sim.Time) {
	b.leases.onDecide(cfg.Self, cfg.Payload, o, b.Now())
	if t := b.txn(cfg.TID); t != nil && t.t.onDecided != nil {
		t.t.onDecided(cfg.Self, o)
	}
}

// partition implements wallSites: a pair of blocklists per link.
func (b *LiveBackend) partition(g2 []proto.SiteID) []RecoveryReport {
	for id, link := range b.links {
		var blocked []proto.SiteID
		for peer := range b.links {
			if containsSite(g2, id) != containsSite(g2, peer) {
				blocked = append(blocked, peer)
			}
		}
		link.SetBlocked(blocked)
	}
	if len(g2) > 0 || !b.cfg.Recovery {
		return nil
	}
	return b.unresolved.retry(b.cfg, allSites(b.cfg.Sites), b.Now(), b.Peers)
}

// reachable reports whether a message between a and b would currently be
// delivered: both sites running and on the same side of any partition. It
// is the bulk-transfer admission check for recovery catch-up (state pulls
// are modeled as a direct channel rather than per-key messages).
func (b *LiveBackend) reachable(a, z proto.SiteID) bool {
	return b.loop(a) != nil && b.loop(z) != nil && !b.links[a].Blocked(z)
}

// restart implements wallSites: a fresh loop, if the site ran one when it
// crashed, and under Config.Recovery the site's durable recovery over real
// traffic — each in-doubt inquiry is a MsgInquire that crosses (or bounces
// off) the actual partition state, and catch-up pulls from a currently
// reachable replica.
func (b *LiveBackend) restart(id proto.SiteID, at sim.Time) (*RecoveryReport, bool) {
	b.lmu.Lock()
	if b.crashed[id] && !b.closed.Load() {
		b.startSiteLocked(id)
	}
	delete(b.crashed, id)
	b.lmu.Unlock()
	if !b.cfg.Recovery {
		return nil, true
	}
	rep, ok := b.unresolved.recover(b.cfg, id, at, b.Peers(id))
	if !ok {
		return nil, true // no engine: the site rejoins with amnesia
	}
	return &rep, true
}

// Peers implements Backend.
func (b *LiveBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return livePeers{backend: b, self: self}
}

// SpawnSite implements the siteLifecycle extension: a joining site's real
// goroutine loop comes up before any byte is copied to it. No-op for a
// site already running, crashed, or after Close.
func (b *LiveBackend) SpawnSite(id proto.SiteID) {
	b.lmu.Lock()
	defer b.lmu.Unlock()
	_, crashed := b.crashed[id]
	if b.links[id] != nil && b.loops[id] == nil && !crashed && !b.closed.Load() {
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

// submit implements wallSites.
func (b *LiveBackend) submit(spec site.Spec) error {
	lp := b.loop(spec.Master)
	if lp == nil {
		return errSiteDown
	}
	lp.Submit(spec)
	return nil
}

// status implements wallSites: the running loop's published view.
func (b *LiveBackend) status(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
	if lp := b.loop(id); lp != nil {
		st, started := lp.Txn(tid)
		return st, started, nil
	}
	return site.Status{}, false, nil
}

// stats implements wallSites.
func (b *LiveBackend) stats() NetStats {
	var st NetStats
	for _, link := range b.links {
		st.add(link.Counters())
	}
	return st
}

// close implements wallSites.
func (b *LiveBackend) close() {
	for id, link := range b.links {
		link.Close()
		b.stopSite(id, false)
	}
}

// LeaseTable implements the cluster's leaseTables extension: one site's
// shard-lease table, nil when leasing is disabled.
func (b *LiveBackend) LeaseTable(site proto.SiteID) *lease.Table {
	return b.leases.table(site)
}

var (
	_ Backend   = (*LiveBackend)(nil)
	_ wallSites = (*LiveBackend)(nil)
)
