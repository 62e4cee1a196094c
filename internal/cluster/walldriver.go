package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// wallSites is how the wall-clock driver reaches its sites: NetBackend's
// daemons, or a test's fake. Calls may block (a daemon is a round trip
// away); the driver never makes one with its mutex held.
type wallSites interface {
	// boot brings every site up; the timeline starts when it returns.
	boot(cfg Config) error
	// submit hands a transaction to its master, if the master takes it.
	submit(spec site.Spec) error
	// status is one site's view of one transaction, on the site's own clock
	// (µs since the Unix epoch); started is false when the running
	// incarnation never learned of it. An error is transient.
	status(id proto.SiteID, tid proto.TxnID) (st site.Status, started bool, err error)
	// partition separates the sites in g2 from the rest (the paper's G2);
	// an empty g2 heals and re-runs the inquiry round for what recoveries
	// left unresolved, returning the passes that resolved something.
	partition(g2 []proto.SiteID) []RecoveryReport
	// crash fails a site and returns what the dead incarnation hosted — nil
	// when nobody is left to say (a SIGKILL).
	crash(id proto.SiteID) []site.Status
	// restart brings a crashed site back as a fresh incarnation and reports
	// the durable recovery it ran, if any. Not up, the site stays down and
	// the report says why.
	restart(id proto.SiteID, at sim.Time) (rep *RecoveryReport, up bool)
	// stats sums the live sites' network counters.
	stats() NetStats
	close()
}

// waitDeadlineT bounds each Wait, in units of T: transactions still
// undecided when it elapses are reported blocked, which is exactly what a
// blocking protocol under a partition produces.
const waitDeadlineT = 300

// UndecidedError is a wall-clock Wait running into that deadline: TIDs
// (ascending) are undecided at a live site that started them. Results are
// synced all the same and TxnResult.Blocked names the sites. The sim
// backend never returns it — quiescence proves blocking there.
type UndecidedError struct{ TIDs []proto.TxnID }

func (e *UndecidedError) Error() string {
	return fmt.Sprintf("cluster: %d transactions still undecided at a live site after %dT: %v",
		len(e.TIDs), waitDeadlineT, e.TIDs)
}

// wallDriver is what a wall-clock backend is apart from its sites: the
// tick↔wall mapping, the fault schedule, delayed submission, the
// per-transaction view results are copied from, and Wait. NetBackend
// embeds it and implements wallSites.
//
// Where a rule could go either way it is the simulator's. A transaction's
// roster is the one invite draws when its submission fires. A site is
// crashed for a transaction if it was down at that moment, died hosting it
// undecided, or is down with no decision seen when results are synced;
// what a restarted site answers from durable state rejoins the results at
// the next poll.
type wallDriver struct {
	name      string
	t         time.Duration // the wall-clock value of T
	sites     wallSites
	cfg       Config
	startedAt time.Time // timeline position 0; zero until Open
	closed    atomic.Bool
	partGen   atomic.Int64 // bumped per partition change: stale auto-heals are dropped

	mu sync.Mutex
	// txns holds the transactions not yet final: what Wait polls.
	txns       map[proto.TxnID]*wallTxn
	down       map[proto.SiteID]bool // crashed and not yet restarted
	recoveries []RecoveryReport
	finalStats NetStats // counters frozen at Close
	// pending counts what Wait must not outrun: delayed submissions, and
	// of the scheduled events EvRecover and EvHeal (the durable recovery,
	// the retry pass) — matching the sim backend, whose Wait runs the
	// schedule to quiescence.
	pending sync.WaitGroup
}

// wallTxn is the driver's record of one submitted transaction. view
// mirrors res.Sites under d.mu — decisions land in it as sites report
// them, crashes as they are injected — and sync copies it out, so results
// are never written while a caller may be reading them.
type wallTxn struct {
	t    Txn
	res  *TxnResult
	view map[proto.SiteID]*SiteOutcome
	// firedAt is when the (possibly delayed) submission reached its
	// master, zero before that; roster is who was invited — nobody, for a
	// submission nothing will ever decide.
	firedAt time.Time
	roster  []proto.SiteID
	final   bool // every invited site answered for good: leaves txns at the next sync
}

func newWallDriver(name string, t time.Duration, sites wallSites) wallDriver {
	return wallDriver{
		name: name, t: t, sites: sites,
		txns: make(map[proto.TxnID]*wallTxn),
		down: make(map[proto.SiteID]bool),
	}
}

// Name implements Backend.
func (d *wallDriver) Name() string { return d.name }

// wall converts timeline ticks to wall time (sim.DefaultT ticks = T).
func (d *wallDriver) wall(t sim.Time) time.Duration {
	return time.Duration(t) * d.t / time.Duration(sim.DefaultT)
}

// ticksAt is a wall instant's position on the timeline.
func (d *wallDriver) ticksAt(at time.Time) sim.Time {
	return sim.Time(at.Sub(d.startedAt) * time.Duration(sim.DefaultT) / d.t)
}

// Now implements Backend: wall time since the sites came up, in ticks.
func (d *wallDriver) Now() sim.Time {
	if d.startedAt.IsZero() {
		return 0
	}
	return d.ticksAt(time.Now())
}

// at runs fn at timeline position t: at once if that is already past, else
// on a timer — one Wait waits for, if tracked.
func (d *wallDriver) at(t sim.Time, tracked bool, fn func()) {
	delay := d.wall(t) - time.Since(d.startedAt)
	if delay <= 0 {
		fn()
		return
	}
	if tracked {
		d.pending.Add(1)
	}
	time.AfterFunc(delay, func() {
		fn()
		if tracked {
			d.pending.Done()
		}
	})
}

// Open implements Backend: it boots the sites and starts the timeline.
func (d *wallDriver) Open(cfg Config) error {
	if !d.startedAt.IsZero() {
		return fmt.Errorf("%s backend: already open", d.name)
	}
	d.cfg = cfg // the sites read it from boot on
	if err := d.sites.boot(cfg); err != nil {
		return err
	}
	d.startedAt = time.Now()
	for _, ev := range cfg.Schedule.Sorted() {
		d.Inject(ev) //nolint:errcheck // never fails
	}
	return nil
}

// Inject implements Backend: the event fires at its timeline position (or
// immediately if that is already past). Heals matter to Wait only for the
// retry pass they trigger.
func (d *wallDriver) Inject(ev Event) error {
	d.at(ev.At, ev.Kind == EvRecover || ev.Kind == EvHeal, func() { d.apply(ev) })
	return nil
}

func (d *wallDriver) apply(ev Event) {
	if d.closed.Load() {
		return
	}
	switch ev.Kind {
	case EvPartition:
		gen := d.setPartition(ev.G2)
		if ev.Heal > ev.At {
			d.at(ev.Heal, false, func() {
				if !d.closed.Load() && d.partGen.Load() == gen {
					d.setPartition(nil)
				}
			})
		}
	case EvHeal:
		d.setPartition(nil)
	case EvCrash:
		d.mu.Lock()
		d.down[ev.Site] = true
		d.mu.Unlock()
		hosted := d.sites.crash(ev.Site)
		d.mu.Lock()
		for _, st := range hosted {
			// What it had decided stands; what it had not settles as
			// crashed in the state the automaton died in.
			if wt := d.txns[st.TID]; wt != nil {
				d.record(wt.view[ev.Site], st)
				wt.view[ev.Site].Crashed = st.Outcome == proto.None
			}
		}
		d.mu.Unlock()
	case EvRecover:
		// The site rejoins as a fresh incarnation: it participates in
		// transactions submitted from now on, and the automata it hosted
		// before the crash stay dead.
		d.mu.Lock()
		down := d.down[ev.Site]
		d.mu.Unlock()
		if !down {
			return
		}
		rep, up := d.sites.restart(ev.Site, ev.At)
		if rep != nil {
			rep.Done = d.Now()
		}
		d.mu.Lock()
		if up {
			delete(d.down, ev.Site)
		}
		if rep != nil {
			d.recoveries = append(d.recoveries, *rep)
		}
		d.mu.Unlock()
	}
}

// setPartition installs a partition (an empty g2 heals) and returns its
// generation.
func (d *wallDriver) setPartition(g2 []proto.SiteID) int64 {
	gen := d.partGen.Add(1)
	reps := d.sites.partition(g2)
	d.mu.Lock()
	d.recoveries = append(d.recoveries, reps...)
	d.mu.Unlock()
	return gen
}

// Submit implements Backend. A future t.At is honored by delaying the
// submission on the wall clock.
func (d *wallDriver) Submit(t Txn, res *TxnResult) error {
	if d.closed.Load() {
		return fmt.Errorf("%s backend: closed", d.name)
	}
	wt := &wallTxn{t: t, res: res, view: make(map[proto.SiteID]*SiteOutcome, len(res.Sites))}
	for id, so := range res.Sites {
		v := *so
		wt.view[id] = &v
	}
	d.mu.Lock()
	d.txns[t.ID] = wt
	d.mu.Unlock()
	d.at(t.At, true, func() { d.fire(wt) })
	return nil
}

// fire hands a transaction to its master with the roster of the moment
// (invite).
func (d *wallDriver) fire(wt *wallTxn) {
	t := wt.t
	d.mu.Lock()
	spec, absent, ok := invite(d.cfg, t, func(id proto.SiteID) bool { return d.down[id] })
	for _, id := range absent {
		wt.view[id].Crashed = true
	}
	noop := d.closed.Load() || !ok
	d.mu.Unlock()
	refused := !noop && d.sites.submit(spec) != nil
	d.mu.Lock()
	if refused { // died between check and call
		wt.view[t.Master].Crashed = true
	} else if !noop {
		wt.roster = spec.Sites
	}
	wt.firedAt = time.Now()
	d.mu.Unlock()
}

// record copies a site's answer into its slot of a view; the decision
// keeps the site's own stamp, mapped onto the timeline. Called with d.mu
// held.
func (d *wallDriver) record(v *SiteOutcome, st site.Status) {
	v.Started, v.FinalState, v.Outcome = true, st.State, st.Outcome
	if st.DecidedAt != 0 { // zero: undecided, or answered from the log after a restart
		v.DecidedAt = d.ticksAt(time.UnixMicro(int64(st.DecidedAt)))
	}
}

// Wait implements Backend: it waits for every submitted transaction to
// settle at every live invited site and for every tracked event to finish,
// then syncs all results. Transactions still undecided at the deadline are
// reported blocked, and named in the error.
func (d *wallDriver) Wait() error {
	d.pending.Wait()
	deadline := time.Now().Add(waitDeadlineT * d.t)
	for !d.settled() && time.Now().Before(deadline) {
		time.Sleep(d.t / 2)
	}
	return d.sync()
}

// settled asks, for every transaction in txns, the invited sites not yet
// seen decided, and reports whether Wait has nothing left to wait for. A
// site that learned of a transaction must have decided it; a site that
// never did — its MsgXact bounced off a partition, or its master aborted
// before inviting anyone — is given a 10T delivery grace after submission
// (a delayed MsgXact plus the whole protocol fits well inside it) before
// silence is taken as final. A down site is not waited for, but keeps the
// transaction in txns for the answer its restart may bring.
func (d *wallDriver) settled() bool {
	type ask struct {
		wt    *wallTxn
		sites []proto.SiteID
	}
	var asks []ask
	all := true
	d.mu.Lock()
	for _, wt := range d.txns {
		if wt.firedAt.IsZero() {
			all = false // the delayed submission has not reached its master yet
			continue
		}
		a := ask{wt: wt}
		wt.final = true
		for _, id := range wt.roster {
			switch {
			case wt.view[id].Outcome != proto.None:
			case d.down[id]:
				wt.final = false
			default:
				a.sites = append(a.sites, id)
			}
		}
		asks = append(asks, a)
	}
	d.mu.Unlock()
	for _, a := range asks {
		inGrace := time.Since(a.wt.firedAt) < 10*d.t
		for _, id := range a.sites {
			st, started, err := d.sites.status(id, a.wt.t.ID)
			d.mu.Lock()
			v := a.wt.view[id]
			if started && err == nil {
				d.record(v, st)
			}
			// Ask again after a transient failure, while undecided, and
			// (unless it is known to have crashed) while the grace lasts.
			if err != nil || started && st.Outcome == proto.None || !started && !v.Crashed && inGrace {
				a.wt.final, all = false, false
			}
			d.mu.Unlock()
		}
	}
	return all
}

// sync polls once more, so that what is still undecided shows its latest
// state, and copies the views into the result handles; final transactions
// leave txns. The error names the transactions left blocked, if any.
func (d *wallDriver) sync() error {
	d.settled()
	var stuck []proto.TxnID
	d.mu.Lock()
	for tid, wt := range d.txns {
		for id, v := range wt.view {
			if d.down[id] && v.Outcome == proto.None {
				v.Crashed = true
			}
			*wt.res.Sites[id] = *v
		}
		if wt.final {
			delete(d.txns, tid)
		} else if len(wt.res.Blocked()) > 0 {
			stuck = append(stuck, tid)
		}
	}
	d.mu.Unlock()
	if len(stuck) == 0 {
		return nil
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
	return &UndecidedError{TIDs: stuck}
}

// Recoveries implements Backend.
func (d *wallDriver) Recoveries() []RecoveryReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]RecoveryReport(nil), d.recoveries...)
}

// RecoveryCount implements Backend.
func (d *wallDriver) RecoveryCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.recoveries)
}

// NetStats implements Backend: counters summed over the live sites; after
// Close, as they stood when the sites went down.
func (d *wallDriver) NetStats() NetStats {
	if d.startedAt.IsZero() || d.closed.Load() {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.finalStats
	}
	return d.sites.stats()
}

// Close implements Backend: it fills the final automaton states into all
// results, freezes the counters and stops the sites.
func (d *wallDriver) Close() error {
	if d.closed.Swap(true) || d.startedAt.IsZero() {
		return nil
	}
	d.sync() //nolint:errcheck // what is blocked stays in the results
	final := d.sites.stats()
	d.mu.Lock()
	d.finalStats = final
	d.mu.Unlock()
	d.sites.close()
	return nil
}
