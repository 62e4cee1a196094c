// Package recovery says what a restarting site must do to become a
// current, consistent replica again; site.Node runs it as a step machine
// on the site's own clock and transport, the same way on both backends.
// A recovering site runs three phases, in order:
//
//  1. Replay — the stable log is replayed (engine.RecoverInPlace):
//     committed transactions and directly-applied writes are redone,
//     aborted ones discarded, and prepared-but-undecided transactions
//     surface as in-doubt with their locks re-taken.
//
//  2. In-doubt resolution — the inquiry round of the paper's termination
//     protocol (§5.3 probe, §7 recovery): the site asks the members of the
//     transaction's participant set (recorded in its own begin record) for
//     their durable decision and adopts the first answer. A restarted site
//     has lost its timers, but the termination protocol guarantees the
//     survivors decided, so any participant holding a decision — the
//     coordinator or not — is authoritative. One whose every inquiry
//     bounced or met a round trip's silence stays in doubt, locks held, as
//     the paper prescribes for a minority islet, until the next heal edge.
//
//  3. Catch-up — commits the site missed while down are pulled from a
//     current replica of each catch-up source (under sharded placement,
//     each hosted shard) and reconciled into the local store: idempotent,
//     WAL-logged, skipping keys still locked by in-doubt transactions.
package recovery

import (
	"fmt"
	"slices"

	"termproto/internal/placement"
	"termproto/internal/proto"
)

// CatchUpSource names one unit of catch-up: donors able to serve it and
// the key subset they are authoritative for (nil = every key the
// recovering site hosts).
type CatchUpSource struct {
	Donors  []proto.SiteID
	Include func(key string) bool
}

// Plan assembles one site's recovery, the same way on every runtime: all
// is whom to ask about an in-doubt transaction whose begin record carries
// no roster, and srcs the sources to catch up from. sites is the
// cluster's roster, ascending. Under full replication (nil asg) every site
// is interrogated and the whole keyspace is caught up from any other site.
// Under sharded placement both are scoped to the site's replica groups:
// only the assignment's members are
// interrogated — a transaction with no logged roster can only have run at
// sites that replicate some shard, so asking provisioned-but-empty
// capacity is pure heal-time retry traffic — and each hosted shard is one
// catch-up source, pulled from its other replicas. Callers pass the
// assignment current at the restart: a site that slept through a
// rebalance catches up the shards it hosts now, from their replicas now.
func Plan(site proto.SiteID, sites []proto.SiteID, asg *placement.Assignment) (all []proto.SiteID, srcs []CatchUpSource) {
	if asg == nil {
		return sites, []CatchUpSource{{Donors: without(sites, site)}}
	}
	if all = asg.Members(); len(all) == 0 {
		all = sites
	}
	for s := 0; s < asg.Shards(); s++ {
		replicas := asg.Replicas(s)
		donors := without(replicas, site)
		if len(donors) == len(replicas) {
			continue // not hosted here
		}
		shard := s
		srcs = append(srcs, CatchUpSource{
			Donors:  donors,
			Include: func(key string) bool { return asg.ShardOf(key) == shard },
		})
	}
	return all, srcs
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
	// CaughtUpKeys counts keys changed by the catch-up pull.
	CaughtUpKeys int
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("replayed=%d in-doubt=%d resolved-commit=%d resolved-abort=%d unresolved=%d caught-up=%d",
		s.Replayed, s.InDoubt, s.ResolvedCommit, s.ResolvedAbort, s.Unresolved, s.CaughtUpKeys)
}
