// Package recovery is the crash-recovery manager: it turns a site's
// write-ahead log plus the live remainder of the cluster back into a
// current, consistent replica. A recovering site runs three phases, in
// order:
//
//  1. Replay — the stable log is replayed (engine.RecoverInPlace):
//     committed transactions and directly-applied writes are redone,
//     aborted ones discarded, and prepared-but-undecided transactions
//     surface as in-doubt with their locks re-taken.
//
//  2. In-doubt resolution — each in-doubt transaction is resolved by the
//     inquiry round of the paper's termination protocol (§5.3 probe, §7
//     recovery): the site asks the members of the transaction's
//     participant set (recorded in its own begin record) for their
//     durable decision and adopts the first answer. A restarted site has
//     lost its timers, so the timing-based inferences of the in-flight
//     protocol are unavailable; but because the termination protocol
//     guarantees the survivors decided, any reachable participant that
//     holds a decision — the coordinator or not — is authoritative.
//     Unreachable-peer handling is the caller's (the backend consults its
//     partition model, or a real inquiry message bounces); a transaction
//     with no reachable decided participant stays in doubt, locks held,
//     exactly as the paper prescribes for a minority islet.
//
//  3. Catch-up — commits the site missed entirely while down (it was not
//     a live participant, so nothing is in its log) are pulled from a
//     current replica: for each catch-up source, the first reachable
//     donor's committed state is reconciled into the local store
//     (idempotently, WAL-logged, skipping keys still locked by unresolved
//     in-doubt transactions). Under sharded placement each shard hosted
//     by the site is one source, pulled from that shard's other replicas.
//
// The manager is backend-neutral, and site.Node runs it on both: at
// EvRecover on the deterministic simulator (reachability from the
// partition timeline, synchronous inquiry), and at a termnode daemon's
// start-up (real MsgInquire messages through site.Loop).
package recovery

import (
	"fmt"
	"slices"
	"sort"

	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
)

// PeerClient is how a recovering site reaches the rest of the cluster.
// Implementations enforce the failure model: an unreachable peer (crashed,
// or across an active partition boundary) answers ok=false.
type PeerClient interface {
	// Outcome asks peer for its durable decision on tid; ok is false when
	// the peer is unreachable or has no decision.
	Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool)
	// Snapshot pulls peer's committed state as a catch-up source, plus
	// the peer's unstable keys — keys held by in-flight transactions
	// there, whose committed value a pending decision may supersede and
	// which the puller must therefore not adopt. ok is false when the
	// peer is unreachable or exposes no state.
	Snapshot(peer proto.SiteID) (snap map[string][]byte, unstable map[string]bool, ok bool)
}

// CatchUpSource names one unit of catch-up: donors able to serve it (in
// preference order) and the key subset they are authoritative for (nil =
// every key the recovering site hosts).
type CatchUpSource struct {
	Donors  []proto.SiteID
	Include func(key string) bool
}

// Config parameterizes one site's recovery.
type Config struct {
	// Site is the recovering site.
	Site proto.SiteID
	// Engine is the site's database, opened over its stable log.
	Engine *engine.Engine
	// Peers reaches the live cluster.
	Peers PeerClient
	// AllSites is the interrogation fallback for in-doubt transactions
	// whose begin record carries no roster.
	AllSites []proto.SiteID
	// CatchUp lists the anti-entropy sources to reconcile after
	// resolution; empty skips catch-up.
	CatchUp []CatchUpSource
	// Checkpoint compacts the site's log at recovery-quiescence (after
	// replay, resolution and catch-up): the replayed history — including
	// the per-key RecApply records catch-up and migrations append — is
	// replaced by an equivalent fragment rebuilt from current state, so
	// repeated crash/recover cycles replay a bounded log instead of an
	// ever-growing one.
	Checkpoint bool
}

// Plan assembles one site's recovery, the same way on every runtime. sites
// is the cluster's roster, ascending. Under full replication (nil asg)
// every site is interrogated for in-doubt decisions and the whole keyspace
// is caught up from any other site, in ascending donor order. Under
// sharded placement both are scoped to the site's replica groups: only the
// assignment's members are interrogated — a transaction with no logged
// roster can only have run at sites that replicate some shard, so asking
// provisioned-but-empty capacity is pure heal-time retry traffic — and each
// hosted shard is one catch-up source, pulled from its other replicas.
// Callers pass the assignment current at the restart: a site that slept
// through a rebalance catches up the shards it hosts now, from their
// replicas now. The log is compacted at recovery-quiescence.
func Plan(site proto.SiteID, eng *engine.Engine, peers PeerClient,
	sites []proto.SiteID, asg *placement.Assignment) Config {
	cfg := Config{Site: site, Engine: eng, Peers: peers, AllSites: sites, Checkpoint: true}
	if asg == nil {
		cfg.CatchUp = []CatchUpSource{{Donors: without(sites, site)}}
		return cfg
	}
	if mem := asg.Members(); len(mem) > 0 {
		cfg.AllSites = mem
	}
	for s := 0; s < asg.Shards(); s++ {
		replicas := asg.Replicas(s)
		donors := without(replicas, site)
		if len(donors) == len(replicas) {
			continue // not hosted here
		}
		shard := s
		cfg.CatchUp = append(cfg.CatchUp, CatchUpSource{
			Donors:  donors,
			Include: func(key string) bool { return asg.ShardOf(key) == shard },
		})
	}
	return cfg
}

// without returns ids minus id, order kept.
func without(ids []proto.SiteID, id proto.SiteID) []proto.SiteID {
	return slices.DeleteFunc(slices.Clone(ids), func(x proto.SiteID) bool { return x == id })
}

// Stats summarizes one recovery.
type Stats struct {
	// Replayed counts committed transactions redone from the local log.
	Replayed int
	// InDoubt counts prepared-but-undecided transactions found in the log.
	InDoubt int
	// ResolvedCommit / ResolvedAbort count in-doubt transactions resolved
	// through the inquiry round.
	ResolvedCommit int
	ResolvedAbort  int
	// Unresolved counts in-doubt transactions with no reachable decided
	// participant; they keep their locks until a later recovery or heal.
	Unresolved int
	// Pending lists the unresolved in-doubt transactions themselves, so a
	// later heal can re-run the inquiry round (Retry) without another
	// replay.
	Pending []engine.InDoubt
	// CaughtUpKeys counts keys changed by the catch-up pull.
	CaughtUpKeys int
	// Checkpointed reports that the log was compacted at recovery-
	// quiescence (Config.Checkpoint set).
	Checkpointed bool
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("replayed=%d in-doubt=%d resolved-commit=%d resolved-abort=%d unresolved=%d caught-up=%d",
		s.Replayed, s.InDoubt, s.ResolvedCommit, s.ResolvedAbort, s.Unresolved, s.CaughtUpKeys)
}

// Run executes one site's recovery: replay, in-doubt resolution, catch-up.
// It is deterministic given a deterministic PeerClient: in-doubt
// transactions are resolved in ascending TID order and every roster is
// interrogated in ascending site order.
func Run(cfg Config) (Stats, error) {
	if cfg.Engine == nil {
		return Stats{}, fmt.Errorf("recovery: site %d has no engine", cfg.Site)
	}
	if cfg.Peers == nil {
		return Stats{}, fmt.Errorf("recovery: site %d has no peer client", cfg.Site)
	}
	info, err := cfg.Engine.RecoverInPlace()
	if err != nil {
		return Stats{}, fmt.Errorf("recovery: %w", err)
	}
	st := Stats{Replayed: info.Replayed, InDoubt: len(info.InDoubt)}
	resolveAll(cfg, info.InDoubt, &st)
	for _, src := range cfg.CatchUp {
		for _, donor := range src.Donors {
			if donor == cfg.Site {
				continue
			}
			snap, unstable, ok := cfg.Peers.Snapshot(donor)
			if !ok {
				continue
			}
			n, err := cfg.Engine.CatchUp(snap, unstable, src.Include)
			if err != nil {
				return st, fmt.Errorf("recovery: %w", err)
			}
			st.CaughtUpKeys += n
			break
		}
	}
	if cfg.Checkpoint {
		if err := cfg.Engine.Checkpoint(); err != nil {
			return st, fmt.Errorf("recovery: %w", err)
		}
		st.Checkpointed = true
	}
	return st, nil
}

// resolveAll runs the inquiry round for each in-doubt transaction,
// applying verdicts to the engine and accumulating stats; transactions
// with no reachable decided participant land in st.Pending.
func resolveAll(cfg Config, pend []engine.InDoubt, st *Stats) {
	for _, d := range pend {
		switch resolve(cfg, d) {
		case proto.Commit:
			cfg.Engine.Commit(proto.TxnID(d.TID))
			st.ResolvedCommit++
		case proto.Abort:
			cfg.Engine.Abort(proto.TxnID(d.TID))
			st.ResolvedAbort++
		default:
			st.Unresolved++
			st.Pending = append(st.Pending, d)
		}
	}
}

// Retry re-runs the inquiry round for transactions a previous recovery
// left unresolved — the heal-event path: the partition that hid every
// decided participant has lifted, so the blocked locks can finally
// release without waiting for another restart. Transactions the engine
// has meanwhile decided by other means are skipped. The returned stats
// carry only resolution counters (no replay, no catch-up); still-pending
// transactions are listed for the next heal.
func Retry(cfg Config, pend []engine.InDoubt) Stats {
	var st Stats
	if cfg.Engine == nil || cfg.Peers == nil {
		st.Pending = pend
		st.Unresolved = len(pend)
		return st
	}
	live := pend[:0:0]
	for _, d := range pend {
		if o, ok := cfg.Engine.Outcome(d.TID); ok && o != proto.None {
			continue
		}
		live = append(live, d)
	}
	st.InDoubt = len(live)
	resolveAll(cfg, live, &st)
	return st
}

// resolve runs the inquiry round for one in-doubt transaction: interrogate
// its participant roster (its own logged begin metadata, else every site)
// in ascending order and adopt the first durable decision.
func resolve(cfg Config, d engine.InDoubt) proto.Outcome {
	roster := d.Sites
	if len(roster) == 0 {
		roster = cfg.AllSites
	}
	roster = append([]proto.SiteID(nil), roster...)
	sort.Slice(roster, func(i, j int) bool { return roster[i] < roster[j] })
	for _, peer := range roster {
		if peer == cfg.Site {
			continue
		}
		if o, ok := cfg.Peers.Outcome(peer, d.TID); ok && o != proto.None {
			return o
		}
	}
	return proto.None
}
