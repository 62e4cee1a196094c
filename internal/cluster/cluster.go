// Package cluster is the unified execution surface for the repository's
// commit protocols: a long-lived Cluster accepts many concurrent
// transactions, each with its own master, runs them through a pluggable
// Backend — the deterministic discrete-event SimBackend, or the
// process-per-site NetBackend over real termnode daemons — and scripts
// faults (partitions, heals, repartitions, site crashes and recoveries) as
// first-class timeline events. The same scenario, protocol and workload
// code runs unchanged against either. RunOne is the simulator's one-shot
// form: one transaction on a fresh SimBackend cluster.
//
// A placement.Directory adds an elastic data-placement layer: the
// keyspace is hash-sharded with an epoch-stamped replica set per shard,
// and each transaction instantiates automata only at its participant
// sites — the replica sets of the shards its payload keys touch, at its
// admission epoch — so throughput scales with the cluster instead of
// every commit touching every site. Join, leave and move events
// (JoinAt, LeaveAt, MoveShardAt) rebalance shards at runtime, on the
// simulator: contents are copied through the recovery catch-up machinery
// and the epoch bump commits as a metadata transaction through the
// cluster's own commit protocol, so a partition mid-migration is resolved
// by the termination protocol like any other in-doubt transaction.
//
//	c, _ := cluster.Open(cluster.Config{Sites: 5, Protocol: core.Protocol{},
//	    Schedule: cluster.Schedule{
//	        cluster.PartitionAt(2500, 4, 5),
//	        cluster.HealAt(7000),
//	    }})
//	c.SubmitBatch(txns)
//	c.Wait()
//	vs := c.Verify() // empty: every txn decided, atomic, replicas identical
//	st := c.Stats()
//	c.Close()
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"termproto/internal/check"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// Voter decides a site's vote when it has no database.
type Voter = proto.Voter

// AllYes votes yes at every site; NoAt votes no at exactly the given
// sites.
var (
	AllYes = proto.AllYes
	NoAt   = proto.NoAt
)

// MasterPolicy assigns a coordinating site to a transaction whose Master
// field is zero. It receives the transaction's participant set (ascending,
// never empty) and must return one of its members.
type MasterPolicy func(tid proto.TxnID, participants []proto.SiteID) proto.SiteID

// MasterFixed coordinates every transaction at the given site — the
// paper's convention (master = site 1). When the fixed site is not a
// participant (sharded placement routed the data elsewhere) coordination
// falls back to the lowest-numbered participant.
func MasterFixed(id proto.SiteID) MasterPolicy {
	return func(_ proto.TxnID, participants []proto.SiteID) proto.SiteID {
		for _, p := range participants {
			if p == id {
				return id
			}
		}
		return participants[0]
	}
}

// MasterRoundRobin spreads coordination across the participant set by TID.
func MasterRoundRobin() MasterPolicy {
	return func(tid proto.TxnID, participants []proto.SiteID) proto.SiteID {
		return participants[int(uint64(tid-1)%uint64(len(participants)))]
	}
}

// MasterPrimary is the shard-local policy: every transaction is
// coordinated from inside its replica set, at the lowest-numbered
// participant. With a Directory this keeps the whole commit inside the
// sites that host the data — no off-shard coordinator hops — and it is
// the default policy for sharded clusters.
func MasterPrimary() MasterPolicy {
	return func(_ proto.TxnID, participants []proto.SiteID) proto.SiteID {
		return participants[0]
	}
}

// Config parameterizes a Cluster.
type Config struct {
	// Sites is the cluster size; sites are numbered 1..Sites.
	Sites int
	// Protocol is the commit protocol every transaction runs under.
	Protocol proto.Protocol
	// Backend is the execution runtime; nil defaults to NewSimBackend
	// with default options.
	Backend Backend
	// Schedule scripts faults on the cluster timeline.
	Schedule Schedule
	// Directory is the versioned shard directory that places the keyspace
	// across the sites: epoch-stamped replica sets that join, leave and
	// move events rebalance at runtime. A transaction whose Sites field is
	// empty participates only at the replica sets of the shards its payload
	// keys touch, resolved at its admission epoch, and Verify checks each
	// key's convergence across its replica set at the current epoch. Nil
	// means full replication: every transaction runs at every site. The
	// directory's members may be a subset of Sites — the remaining sites
	// are provisioned capacity that can join later.
	Directory *placement.Directory
	// MasterPolicy assigns masters to transactions that do not name one;
	// nil defaults to MasterPrimary when a Directory is set, MasterFixed(1)
	// otherwise.
	MasterPolicy MasterPolicy
	// Votes decides votes for sites without an engine; nil votes yes.
	// Per-transaction voters take precedence.
	Votes Voter
	// Engines optionally attaches a storage engine, the site's database,
	// per site; a nil or missing entry means the site has none. Partial
	// execution on the engine gives the site's vote, and the decision is
	// applied to it. A site with an engine recovers at EvRecover: its
	// engine is rebuilt from its write-ahead log, in-doubt transactions
	// are resolved by the termination protocol's inquiry round against
	// reachable peers, and commits missed while down are pulled from a
	// current replica. An answer that lands after the inquiry round still
	// resolves, and heal events re-ask about what a recovery left
	// unresolved. A site without one rejoins with amnesia.
	Engines map[proto.SiteID]*engine.Engine

	// migrate is Open's hook for membership events (EvJoin/EvLeave/
	// EvMove): the backends call it at the event's timeline position and
	// the cluster runs the migration. Set by Open, never by callers.
	migrate func(ev Event)
}

// Txn is one transaction submitted to a Cluster.
type Txn struct {
	// ID is the transaction identifier; 0 lets the cluster assign the
	// next free one.
	ID proto.TxnID
	// Master is the coordinating site; 0 defers to the MasterPolicy. An
	// explicitly named master joins the participant set even when the
	// placement layer would not have routed the transaction to it.
	Master proto.SiteID
	// Sites is the participant set: the only sites that instantiate
	// protocol automata for this transaction. Empty derives it from the
	// payload's keys through the cluster's Directory (all sites when there
	// is no Directory or the payload carries no data keys).
	Sites []proto.SiteID
	// Payload is the transaction body carried in MsgXact.
	Payload []byte
	// At is the earliest start time on the cluster timeline, in ticks.
	// Zero starts the transaction as soon as it is submitted.
	At sim.Time
	// Votes overrides the cluster voter for this transaction.
	Votes Voter

	// onDecided, when set, is invoked by the backend each time a site
	// records this transaction's decision (site, outcome). The migration
	// machinery uses it to advance the directory epoch at the exact
	// moment the epoch-bump transaction decides.
	onDecided func(site proto.SiteID, o proto.Outcome)
}

// SiteOutcome is one site's final view of one transaction.
type SiteOutcome struct {
	Outcome    proto.Outcome
	DecidedAt  sim.Time
	FinalState string
	// Started reports whether the site ever participated (the master, or
	// a slave that learned of the transaction).
	Started bool
	// Crashed reports that the site failed while hosting the transaction,
	// or was down when it was submitted, and that no incarnation running
	// since has answered for it. A restarted site that answers — from its
	// automaton or its log — clears it, so one still in doubt is blocked.
	Crashed bool
}

// record copies a running incarnation's answer into the slot and clears
// Crashed. decidedAt is the answer's decision time on the timeline, kept
// only when the answer carries one: an undecided answer, or one read from
// the log after a restart, leaves the slot's own.
func (v *SiteOutcome) record(st site.Status, decidedAt sim.Time) {
	v.Started, v.FinalState, v.Outcome, v.Crashed = true, st.State, st.Outcome, false
	if st.DecidedAt != 0 {
		v.DecidedAt = decidedAt
	}
}

// TxnResult is the cluster's record of one submitted transaction. Its
// fields are stable after the Wait call that covers the transaction.
type TxnResult struct {
	TID    proto.TxnID
	Master proto.SiteID
	// Participants is the transaction's participant set in ascending
	// order — under sharded placement, the replica sets of the shards its
	// keys touch. Sites has exactly these keys.
	Participants []proto.SiteID
	// Epoch is the directory epoch the transaction was admitted under
	// (always 0 without a directory). The participant set was resolved
	// against this epoch's assignment and stays frozen even if the
	// directory advances before the transaction terminates.
	Epoch placement.Epoch
	Sites map[proto.SiteID]*SiteOutcome
}

// Outcome returns the decided outcome (None if no site decided).
func (r *TxnResult) Outcome() proto.Outcome {
	for _, s := range r.Sites {
		if s.Outcome != proto.None {
			return s.Outcome
		}
	}
	return proto.None
}

// Committed reports whether the transaction committed anywhere.
func (r *TxnResult) Committed() bool { return r.Outcome() == proto.Commit }

// Consistent reports transaction atomicity: no two decided sites disagree.
func (r *TxnResult) Consistent() bool {
	seen := proto.None
	for _, s := range r.Sites {
		if s.Outcome == proto.None {
			continue
		}
		if seen == proto.None {
			seen = s.Outcome
		} else if seen != s.Outcome {
			return false
		}
	}
	return true
}

// Blocked lists live sites that participated but never decided — the
// blocking the paper's termination protocol exists to prevent.
func (r *TxnResult) Blocked() []proto.SiteID {
	var out []proto.SiteID
	for _, id := range sortedIDs(keys(r.Sites)) {
		s := r.Sites[id]
		if s.Started && !s.Crashed && s.Outcome == proto.None {
			out = append(out, id)
		}
	}
	return out
}

func sortedIDs(ids []proto.SiteID) []proto.SiteID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Decided reports whether every live participating site reached an outcome.
func (r *TxnResult) Decided() bool { return len(r.Blocked()) == 0 }

// MaxDecisionTime returns the latest decision time across sites.
func (r *TxnResult) MaxDecisionTime() sim.Time {
	var latest sim.Time
	for _, s := range r.Sites {
		if s.Outcome != proto.None && s.DecidedAt > latest {
			latest = s.DecidedAt
		}
	}
	return latest
}

func keys(m map[proto.SiteID]*SiteOutcome) []proto.SiteID {
	out := make([]proto.SiteID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// NetStats are cumulative network counters.
type NetStats struct {
	MsgsSent, MsgsDelivered, MsgsBounced, MsgsDropped uint64
}

func (s *NetStats) add(sent, delivered, bounced, dropped uint64) {
	s.MsgsSent += sent
	s.MsgsDelivered += delivered
	s.MsgsBounced += bounced
	s.MsgsDropped += dropped
}

// Stats aggregates a cluster's transaction and network counters.
type Stats struct {
	Submitted    int
	Committed    int
	Aborted      int
	Blocked      int // transactions left undecided at some live site
	Inconsistent int
	// Recoveries counts durable site recoveries run.
	Recoveries int
	// Epoch is the directory's current epoch (0 without a directory —
	// and with one, the number of committed membership changes).
	Epoch uint64
	// ShardsMoved and KeysMigrated total the shard-replica moves and the
	// keys copied by committed migrations.
	ShardsMoved  int
	KeysMigrated int
	Net          NetStats
	// Now is the cluster timeline position in ticks.
	Now sim.Time
}

// String renders the stats in one line.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"txns=%d committed=%d aborted=%d blocked=%d inconsistent=%d recoveries=%d msgs=%d/%d/%d/%d now=%d",
		s.Submitted, s.Committed, s.Aborted, s.Blocked, s.Inconsistent, s.Recoveries,
		s.Net.MsgsSent, s.Net.MsgsDelivered, s.Net.MsgsBounced, s.Net.MsgsDropped, s.Now)
	if s.Epoch > 0 || s.ShardsMoved > 0 {
		out += fmt.Sprintf(" epoch=%d shards-moved=%d keys-migrated=%d",
			s.Epoch, s.ShardsMoved, s.KeysMigrated)
	}
	return out
}

// Backend is a pluggable execution runtime for a Cluster. SimBackend runs
// the deterministic discrete-event simulator; NetBackend runs real
// termnode processes on wall-clock timers. All calls are made by Cluster,
// which serializes them.
type Backend interface {
	// Name identifies the backend ("sim", "net").
	Name() string
	// Open initializes the runtime for the given cluster shape and fault
	// schedule. Called exactly once, before any Submit.
	Open(cfg Config) error
	// Submit starts one transaction; the backend fills res as sites
	// decide. res is fully populated after the Wait covering it returns.
	Submit(t Txn, res *TxnResult) error
	// Wait runs (sim) or waits (net) until every submitted
	// transaction has terminated or provably blocked — on the wall clock,
	// until a deadline: an *UndecidedError — then finalizes all results.
	Wait() error
	// Inject adds a fault event to the timeline mid-run. Times at or
	// before the current timeline position fire immediately.
	Inject(ev Event) error
	// Now returns the current timeline position in ticks.
	Now() sim.Time
	// NetStats returns cumulative network counters.
	NetStats() NetStats
	// Recoveries returns the durable recoveries run so far, in execution
	// order.
	Recoveries() []RecoveryReport
	// MetricsSnapshots returns every running site's metrics snapshot.
	MetricsSnapshots() []obs.Snapshot
	// evidence is the backend's share of Cluster.Evidence: the trace and
	// how to time it (Events, T, SkipBounds), and every site's write-ahead
	// log as it stands.
	evidence() (check.Input, []siteLog)
	// Close releases the runtime. No calls may follow.
	Close() error
}

// Cluster is a long-lived, backend-pluggable execution surface: open it
// once, submit transactions (concurrently active on the timeline), wait,
// inspect, close. See the package comment for an example.
type Cluster struct {
	cfg     Config
	backend Backend

	mu      sync.Mutex
	txns    map[proto.TxnID]*TxnResult
	order   []proto.TxnID
	nextTID proto.TxnID
	closed  bool

	// Migration bookkeeping (join, leave and move events).
	migrations   []*MigrationReport
	shardsMoved  int
	keysMigrated int
	// pendingReconcile lists (shard, added replica) pairs from committed
	// migrations: transactions admitted under the old epoch terminate at
	// their admission-epoch participants, so the new replica converges
	// through one more anti-entropy pull at the Wait boundary, after the
	// stragglers drain.
	pendingReconcile []reconcileItem
}

type reconcileItem struct {
	shard int
	site  proto.SiteID
}

// Open validates the configuration, opens the backend, and returns a
// running cluster.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 sites, got %d", cfg.Sites)
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("cluster: nil protocol")
	}
	if err := cfg.Schedule.validate(cfg.Sites); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Directory != nil {
		_, asg := cfg.Directory.Current()
		if int(asg.MaxSite()) > cfg.Sites {
			return nil, fmt.Errorf("cluster: directory member %d outside 1..%d",
				asg.MaxSite(), cfg.Sites)
		}
	}
	if cfg.Backend == nil {
		cfg.Backend = NewSimBackend(SimOptions{})
	}
	if cfg.MasterPolicy == nil {
		if cfg.Directory != nil {
			cfg.MasterPolicy = MasterPrimary()
		} else {
			cfg.MasterPolicy = MasterFixed(1)
		}
	}
	c := &Cluster{
		cfg:     cfg,
		backend: cfg.Backend,
		txns:    make(map[proto.TxnID]*TxnResult),
		nextTID: 1,
	}
	c.cfg.migrate = c.applyMembershipEvent
	if err := c.backend.Open(c.cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Submit registers one transaction and starts it on the backend. The
// returned result is live: its fields settle after the next Wait.
func (c *Cluster) Submit(t Txn) (*TxnResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: closed")
	}
	if t.ID == 0 {
		t.ID = c.nextTID
	}
	if _, dup := c.txns[t.ID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: duplicate TID %d", t.ID)
	}
	participants, epoch, err := c.resolveParticipants(t)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if t.Master == 0 {
		t.Master = c.cfg.MasterPolicy(t.ID, participants)
	}
	if int(t.Master) < 1 || int(t.Master) > c.cfg.Sites {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: master %d out of range 1..%d", t.Master, c.cfg.Sites)
	}
	// The coordinator is always a participant: a master outside the data's
	// replica sets joins the transaction.
	if !containsSite(participants, t.Master) {
		participants = insertSite(participants, t.Master)
	}
	t.Sites = participants
	if t.ID >= c.nextTID {
		c.nextTID = t.ID + 1
	}
	res := &TxnResult{
		TID: t.ID, Master: t.Master,
		Participants: participants,
		Epoch:        epoch,
		Sites:        make(map[proto.SiteID]*SiteOutcome, len(participants)),
	}
	for _, id := range participants {
		res.Sites[id] = &SiteOutcome{FinalState: "q"}
	}
	c.txns[t.ID] = res
	c.order = append(c.order, t.ID)
	c.mu.Unlock()

	if err := c.backend.Submit(t, res); err != nil {
		c.mu.Lock()
		delete(c.txns, t.ID)
		for i := len(c.order) - 1; i >= 0; i-- {
			if c.order[i] == t.ID {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return nil, err
	}
	return res, nil
}

// resolveParticipants computes a submission's participant set and
// admission epoch: the explicit Txn.Sites (validated, sorted,
// deduplicated), else the directory derivation from the payload's keys at
// the current epoch, else every site (every member, under a directory).
// A single-site resolution is legal — it takes the local-commit fast
// path. Called with c.mu held.
func (c *Cluster) resolveParticipants(t Txn) ([]proto.SiteID, placement.Epoch, error) {
	var epoch placement.Epoch
	var asg *placement.Assignment
	if d := c.cfg.Directory; d != nil {
		epoch, asg = d.Current()
	}
	if len(t.Sites) > 0 {
		out := make([]proto.SiteID, 0, len(t.Sites))
		for _, id := range t.Sites {
			if int(id) < 1 || int(id) > c.cfg.Sites {
				return nil, 0, fmt.Errorf("cluster: participant %d out of range 1..%d", id, c.cfg.Sites)
			}
			if !containsSite(out, id) {
				out = insertSite(out, id)
			}
		}
		// Only placement-derived single-site rosters take the local
		// fast path: an explicit one-site roster on a replicated key
		// would commit at one replica and silently diverge the rest.
		if len(out) < 2 {
			return nil, 0, fmt.Errorf("cluster: need at least 2 participant sites, got %v", out)
		}
		return out, epoch, nil
	}
	if asg != nil {
		if ids := asg.ParticipantsFor(t.Payload); len(ids) > 0 {
			return ids, epoch, nil
		}
		// Key-less control transactions broadcast to the membership — the
		// sites that hold data — not to provisioned-but-empty capacity.
		if mem := asg.Members(); len(mem) > 0 && len(mem) < c.cfg.Sites {
			return mem, epoch, nil
		}
	}
	return allSites(c.cfg.Sites), epoch, nil
}

// allSites lists sites 1..n.
func allSites(n int) []proto.SiteID {
	all := make([]proto.SiteID, n)
	for i := range all {
		all[i] = proto.SiteID(i + 1)
	}
	return all
}

func containsSite(ids []proto.SiteID, id proto.SiteID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// insertSite inserts id into the ascending slice, keeping it sorted.
func insertSite(ids []proto.SiteID, id proto.SiteID) []proto.SiteID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// SubmitBatch submits transactions in order, stopping at the first error.
func (c *Cluster) SubmitBatch(ts []Txn) ([]*TxnResult, error) {
	out := make([]*TxnResult, 0, len(ts))
	for _, t := range ts {
		r, err := c.Submit(t)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Wait blocks until every submitted transaction has terminated or provably
// blocked, and finalizes their results. More transactions may be submitted
// after Wait returns; the timeline continues. A wall-clock backend's
// *UndecidedError is returned after the migration bookkeeping: results and
// migrations are as settled as they will get.
func (c *Cluster) Wait() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: closed")
	}
	c.mu.Unlock()
	err := c.backend.Wait()
	if err != nil && !errors.As(err, new(*UndecidedError)) {
		return err
	}
	c.settleMigrations()
	c.reconcileMigrated()
	return err
}

// settleMigrations aborts migrations whose epoch-bump transaction can no
// longer decide: a dead coordinator (or a fully-crashed roster) turns the
// transaction into a recorded no-op — no site will ever call the decision
// hook, so without this pass the directory's pending assignment would
// stay set forever and wedge every later membership change. A quiesced
// no-op is recognizable by Outcome None with no live blocked site; a
// transaction merely blocked (live sites still undecided) is left alone.
func (c *Cluster) settleMigrations() {
	c.mu.Lock()
	var dead []*MigrationReport
	for _, rep := range c.migrations {
		if rep.Done || rep.TID == 0 {
			continue
		}
		if r := c.txns[rep.TID]; r != nil && r.Outcome() == proto.None && len(r.Blocked()) == 0 {
			dead = append(dead, rep)
		}
	}
	c.mu.Unlock()
	for _, rep := range dead {
		c.finishMigration(rep, proto.Abort)
	}
}

// reconcileMigrated runs the post-drain anti-entropy pull for replicas
// added by committed migrations: transactions admitted under the old
// epoch and still in flight when the epoch bumped committed at their
// admission-epoch participants, which may not include the new replica.
// At the Wait boundary those stragglers have decided and released their
// locks, so one idempotent catch-up per (shard, added site) makes the
// replica byte-identical to its peers. Items no donor could serve (a
// partition still in force, or a catch-up the replica failed to log) stay
// queued for the next Wait.
func (c *Cluster) reconcileMigrated() {
	c.mu.Lock()
	items := c.pendingReconcile
	c.pendingReconcile = nil
	c.mu.Unlock()
	if len(items) == 0 || c.cfg.Directory == nil {
		return
	}
	_, asg := c.cfg.Directory.Current()
	var remaining []reconcileItem
	pulled := 0
	for _, it := range items {
		if it.shard >= asg.Shards() || !containsSite(asg.Replicas(it.shard), it.site) {
			continue // a later migration moved the shard away again
		}
		n, ok := c.copyShard(it.site, it.shard, asg.Replicas(it.shard))
		pulled += n
		if !ok {
			remaining = append(remaining, it)
		}
	}
	c.mu.Lock()
	c.keysMigrated += pulled
	c.pendingReconcile = append(c.pendingReconcile, remaining...)
	c.mu.Unlock()
}

// copyShard reconciles dst's copy of shard with the first of donors that
// dst can reach now — by the simulator's cut timeline and crash state:
// migration runs there only, over engines in this process — through
// engine.CatchUp. ok is false when no donor could serve; a vote-only dst
// needs no copy.
func (c *Cluster) copyShard(dst proto.SiteID, shard int, donors []proto.SiteID) (n int, ok bool) {
	sb, inProcess := c.backend.(*SimBackend)
	eng := c.cfg.Engines[dst]
	if !inProcess || eng == nil {
		return 0, true
	}
	// Any epoch's assignment hashes keys identically.
	_, asg := c.cfg.Directory.Current()
	include := func(key string) bool { return asg.ShardOf(key) == shard }
	now := sb.sched.Now()
	for _, donor := range donors {
		src := c.cfg.Engines[donor]
		if donor == dst || src == nil || sb.net.Crashed(donor, now) || sb.net.Cuts().Blocked(dst, donor, now) {
			continue
		}
		snap, unstable := src.StableSnapshot()
		if n, err := eng.CatchUp(snap, unstable, include); err == nil {
			return n, true
		} // a failed log: as if this donor could not serve
	}
	return 0, false
}

// Inject adds a fault event to the timeline mid-run — the dynamic
// counterpart of Config.Schedule.
func (c *Cluster) Inject(ev Event) error {
	if err := (Schedule{ev}).validate(c.cfg.Sites); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return c.backend.Inject(ev)
}

// Now returns the cluster timeline position in ticks.
func (c *Cluster) Now() sim.Time { return c.backend.Now() }

// Directory returns the cluster's versioned shard directory (nil when the
// cluster runs full replication).
func (c *Cluster) Directory() *placement.Directory { return c.cfg.Directory }

// Recoveries returns the durable site recoveries run so far, in execution
// order. Stable after Wait.
func (c *Cluster) Recoveries() []RecoveryReport { return c.backend.Recoveries() }

// Results returns every submitted transaction's result in submission
// order. Results are stable only after Wait.
func (c *Cluster) Results() []*TxnResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*TxnResult, 0, len(c.order))
	for _, tid := range c.order {
		out = append(out, c.txns[tid])
	}
	return out
}

// Result returns one transaction's result (nil if unknown).
func (c *Cluster) Result(tid proto.TxnID) *TxnResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txns[tid]
}

// Stats aggregates transaction and network counters. Call after Wait.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Submitted:    len(c.order),
		Recoveries:   len(c.backend.Recoveries()),
		ShardsMoved:  c.shardsMoved,
		KeysMigrated: c.keysMigrated,
		Net:          c.backend.NetStats(),
		Now:          c.backend.Now(),
	}
	if d := c.cfg.Directory; d != nil {
		st.Epoch = uint64(d.Epoch())
	}
	for _, tid := range c.order {
		r := c.txns[tid]
		if !r.Consistent() {
			st.Inconsistent++
		}
		switch {
		case !r.Decided():
			st.Blocked++
		case r.Outcome() == proto.Commit:
			st.Committed++
		case r.Outcome() == proto.Abort:
			st.Aborted++
		}
	}
	return st
}

// siteLog is one site's write-ahead log as a backend found it; up marks a
// site whose replayed log is also its committed snapshot.
type siteLog struct {
	id   proto.SiteID
	data []byte
	up   bool
}

// Evidence is the run's evidence as internal/check reads it: each
// transaction's master, from the results; under a Directory, each key's
// replica set at the current epoch (nil is full replication); the trace
// (SimOptions.RecordTrace on the simulator; after Close on the net
// backend, the daemons' trace files merged, whose wall-clock timing skips
// the §6 bounds); and what each site durably holds. That is read from its
// write-ahead log alone, replaying a copy through engine.Recover, the code
// a restart runs: every engine's store on the simulator, each daemon's WAL
// file on the net backend. The replay gives Durable at every site with a
// log, a daemon killed and never restarted included, and Snapshots and
// Unstable at every engine on the simulator and every daemon up at the
// end. A log that cannot be read or replayed holds nothing, so its site's
// traced decisions read as not durable. After a SIGKILL the page cache
// keeps the bytes a daemon wrote and did not sync, so a daemon's log
// proves less than a power loss would. Call after Wait.
func (c *Cluster) Evidence() check.Input {
	results := c.Results()
	in, logs := c.backend.evidence()
	in.Masters = make(map[uint64]int, len(results))
	for _, r := range results {
		in.Masters[uint64(r.TID)] = int(r.Master)
	}
	if d := c.cfg.Directory; d != nil {
		_, asg := d.Current()
		in.Replicas = func(key string) []int {
			reps := asg.Replicas(asg.ShardOf(key))
			out := make([]int, len(reps))
			for i, id := range reps {
				out[i] = int(id)
			}
			return out
		}
	}
	in.Snapshots = make(map[int]map[string][]byte)
	in.Unstable = make(map[int]map[string]bool)
	in.Durable = make(map[int]map[uint64]string)
	for _, l := range logs {
		durable := make(map[uint64]string)
		in.Durable[int(l.id)] = durable
		store := &wal.MemStore{}
		store.Replace(l.data) //nolint:errcheck // a MemStore's never fails
		e, _, err := engine.Recover(fmt.Sprintf("site-%d-log", l.id), store)
		if err != nil {
			continue
		}
		for _, r := range results {
			if o, ok := e.Outcome(uint64(r.TID)); ok {
				durable[uint64(r.TID)] = o.String()
			}
		}
		if l.up {
			in.Snapshots[int(l.id)], in.Unstable[int(l.id)] = e.StableSnapshot()
		}
	}
	return in
}

// Verify judges the run by its own Evidence: Judge over it and the
// results. An empty slice is the protocol keeping its promise — every
// transaction decided at every live site that started it, no two sites
// disagreeing, replicas converged. Call after Wait; on the net backend,
// after Close too, for the daemons' traces.
func (c *Cluster) Verify() []check.Violation { return Judge(c.Evidence(), c.Results()) }

// Judge is check.Check over in plus the rules only the results show: a
// transaction whose sites' outcomes disagree, and one still undecided at
// a live site that started it.
func Judge(in check.Input, results []*TxnResult) []check.Violation {
	out := check.Check(in)
	for _, res := range results {
		tid := uint64(res.TID)
		if !res.Consistent() {
			out = append(out, check.Violation{
				Rule: check.RuleAgreement, TID: tid,
				Detail: "result outcome set inconsistent across sites",
				Events: check.SubHistory(in.Events, tid),
			})
		}
		if b := res.Blocked(); len(b) > 0 {
			out = append(out, check.Violation{
				Rule: check.RuleAgreement, TID: tid,
				Detail: fmt.Sprintf("blocked at sites %v at quiescence", b),
				Events: check.SubHistory(in.Events, tid),
			})
		}
	}
	return out
}

// Close waits for in-flight work and releases the backend. The cluster
// cannot be reused; results remain readable.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.backend.Close()
}
