// Package quorum makes availability a per-replica-group property.
//
// The protocols in this repository poll a transaction's whole
// participant roster; whether the cluster as a whole can make progress
// was therefore an all-or-nothing question. This package reframes it
// per shard: a transaction touches one replica group per shard of its
// keys, and each group independently either satisfies its quorum rule
// on one side of a partition or does not. Any side hosting a full
// replica set of a shard keeps committing that shard's transactions at
// full speed — the partial-progress shape of CASSANDRA's partitionable
// view synchronization and LARK's roster-based reads (PAPERS.md) —
// while cross-side transactions fall back to the termination protocol's
// bounded waits.
//
// Note the naming collision with internal/protocol/quorum: that package
// is the quorum-based *commit protocol* baseline (Skeen-style surrogate
// termination). This one is the placement-level evaluation used by the
// cluster around any protocol.
package quorum

import (
	"fmt"
	"slices"
	"sync/atomic"

	"termproto/internal/placement"
	"termproto/internal/proto"
)

// Rule is the per-group availability predicate.
type Rule uint8

// Quorum rules. All is the default and the strongest: progress on a
// shard requires every replica reachable (a full replica set on one
// partition side). Majority tolerates minority replica loss per group;
// One is read-your-writes-free best effort for experiments.
const (
	All Rule = iota
	Majority
	One
)

// String returns the flag-friendly rule name.
func (r Rule) String() string {
	switch r {
	case All:
		return "all"
	case Majority:
		return "majority"
	case One:
		return "one"
	default:
		return fmt.Sprintf("rule(%d)", uint8(r))
	}
}

// ParseRule parses a flag-friendly rule name.
func ParseRule(s string) (Rule, error) {
	switch s {
	case "", "all":
		return All, nil
	case "majority":
		return Majority, nil
	case "one":
		return One, nil
	default:
		return All, fmt.Errorf("quorum: unknown rule %q (want all|majority|one)", s)
	}
}

// Met reports whether present replicas out of total satisfy the rule.
func (r Rule) Met(present, total int) bool {
	if total == 0 {
		return false
	}
	switch r {
	case Majority:
		return present > total/2
	case One:
		return present >= 1
	default: // All
		return present == total
	}
}

// Group is one shard's replica set — the unit of quorum evaluation.
type Group struct {
	Shard    int
	Replicas []proto.SiteID
}

// GroupsFor returns the replica groups of a transaction body's
// placement.DataShards, ascending by shard. A body with no data shards
// returns nil (the caller treats the transaction as roster-wide).
func GroupsFor(asg *placement.Assignment, payload []byte) []Group {
	shards := asg.DataShards(payload)
	slices.Sort(shards)
	var out []Group
	for _, s := range shards {
		out = append(out, Group{Shard: s, Replicas: asg.Replicas(s)})
	}
	return out
}

// Tally counts quorum evaluations by result — the observability
// companion to Eval. The counters are atomic so concurrent evaluators
// share one tally; a nil *Tally counts nothing.
type Tally struct {
	met, unmet atomic.Uint64
}

// Eval evaluates the group against the rule and counts the result.
func (t *Tally) Eval(g Group, ok func(proto.SiteID) bool, r Rule) bool {
	met := Eval(g, ok, r)
	if t != nil {
		if met {
			t.met.Add(1)
		} else {
			t.unmet.Add(1)
		}
	}
	return met
}

// Counts returns how many evaluations met and missed their rule.
func (t *Tally) Counts() (met, unmet uint64) {
	if t == nil {
		return 0, 0
	}
	return t.met.Load(), t.unmet.Load()
}

// Eval reports whether the group meets the rule given a reachability
// (or lease-hold) predicate over its replicas.
func Eval(g Group, ok func(proto.SiteID) bool, r Rule) bool {
	present := 0
	for _, id := range g.Replicas {
		if ok == nil || ok(id) {
			present++
		}
	}
	return r.Met(present, len(g.Replicas))
}

// Available reports whether every group meets the rule — the admission
// predicate for a multi-shard transaction.
func Available(groups []Group, ok func(proto.SiteID) bool, r Rule) bool {
	for _, g := range groups {
		if !Eval(g, ok, r) {
			return false
		}
	}
	return len(groups) > 0
}

// AvailableShards returns the shards whose replica groups meet the rule
// under the predicate, ascending — the per-side availability summary
// the partition benchmarks report.
func AvailableShards(asg *placement.Assignment, ok func(proto.SiteID) bool, r Rule) []int {
	if asg == nil {
		return nil
	}
	var out []int
	for s := 0; s < asg.Shards(); s++ {
		if Eval(Group{Shard: s, Replicas: asg.Replicas(s)}, ok, r) {
			out = append(out, s)
		}
	}
	return out
}
