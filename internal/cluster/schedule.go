package cluster

import (
	"fmt"
	"sort"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

// EventKind classifies a fault-schedule event.
type EventKind uint8

// Fault-schedule event kinds.
const (
	// EvPartition raises a simple partition separating G2 from the rest.
	// It implicitly heals any partition already in force (a repartition):
	// the paper's simple-partitioning model has at most one boundary at a
	// time.
	EvPartition EventKind = iota + 1
	// EvHeal removes the partition in force.
	EvHeal
	// EvCrash fails a site: its in-flight automata stop, messages to it
	// are lost without an undeliverable return, and transactions submitted
	// while it is down run without it.
	EvCrash
	// EvRecover brings a crashed site back for subsequently submitted
	// transactions.
	EvRecover
	// EvJoin adds a provisioned site to the shard directory's membership:
	// shards rebalance onto it, contents are copied from current
	// replicas, and the epoch bump commits through the commit protocol.
	// Requires a Directory.
	EvJoin
	// EvLeave drains a member's shards to replacement replicas and
	// removes it from the membership. Requires a Directory.
	EvLeave
	// EvMove hands one shard replica from site From to site Site.
	// Requires a Directory.
	EvMove
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvMove:
		return "move"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one entry on a cluster's fault timeline. Times are virtual
// ticks (sim.DefaultT ticks = one T); the net backend converts them to
// wall time through its configured T.
type Event struct {
	At   sim.Time
	Kind EventKind
	// G2 is the separated group (EvPartition).
	G2 []proto.SiteID
	// Heal optionally makes an EvPartition transient without a separate
	// EvHeal entry; 0 leaves the partition up until the next EvHeal or
	// EvPartition.
	Heal sim.Time
	// Site is the failing/recovering site (EvCrash, EvRecover), the
	// joining/leaving site (EvJoin, EvLeave), or the move's destination
	// (EvMove).
	Site proto.SiteID
	// Shard and From select the moved replica (EvMove).
	Shard int
	From  proto.SiteID
}

// Schedule is a timeline of fault events — partitions, heals, crashes,
// recoveries — scripted against either backend.
type Schedule []Event

// PartitionAt returns a partition event separating g2 at time at.
func PartitionAt(at sim.Time, g2 ...proto.SiteID) Event {
	return Event{At: at, Kind: EvPartition, G2: g2}
}

// TransientPartitionAt returns a partition event that heals on its own.
func TransientPartitionAt(at, heal sim.Time, g2 ...proto.SiteID) Event {
	return Event{At: at, Kind: EvPartition, G2: g2, Heal: heal}
}

// HealAt returns a heal event at time at.
func HealAt(at sim.Time) Event { return Event{At: at, Kind: EvHeal} }

// CrashAt returns a site-failure event at time at.
func CrashAt(at sim.Time, site proto.SiteID) Event {
	return Event{At: at, Kind: EvCrash, Site: site}
}

// RecoverAt returns a site-recovery event at time at.
func RecoverAt(at sim.Time, site proto.SiteID) Event {
	return Event{At: at, Kind: EvRecover, Site: site}
}

// JoinAt returns a membership-join event at time at.
func JoinAt(at sim.Time, site proto.SiteID) Event {
	return Event{At: at, Kind: EvJoin, Site: site}
}

// LeaveAt returns a membership-leave event at time at.
func LeaveAt(at sim.Time, site proto.SiteID) Event {
	return Event{At: at, Kind: EvLeave, Site: site}
}

// MoveShardAt returns a shard-move event at time at: shard's replica at
// from is handed to to.
func MoveShardAt(at sim.Time, shard int, from, to proto.SiteID) Event {
	return Event{At: at, Kind: EvMove, Shard: shard, From: from, Site: to}
}

// Sorted returns the schedule ordered by time, stably, without mutating
// the receiver.
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// validate checks every event against the cluster size.
func (s Schedule) validate(sites int) error {
	for i, ev := range s {
		if ev.At < 0 {
			return fmt.Errorf("schedule[%d]: negative time %d", i, ev.At)
		}
		switch ev.Kind {
		case EvPartition:
			if len(ev.G2) == 0 {
				return fmt.Errorf("schedule[%d]: partition with empty G2", i)
			}
			if len(ev.G2) >= sites {
				return fmt.Errorf("schedule[%d]: G2 contains every site", i)
			}
			for _, id := range ev.G2 {
				if int(id) < 1 || int(id) > sites {
					return fmt.Errorf("schedule[%d]: site %d out of range 1..%d", i, id, sites)
				}
			}
			if ev.Heal != 0 && ev.Heal <= ev.At {
				return fmt.Errorf("schedule[%d]: heal %d not after onset %d", i, ev.Heal, ev.At)
			}
		case EvHeal:
			// nothing site-specific
		case EvCrash, EvRecover, EvJoin, EvLeave:
			if int(ev.Site) < 1 || int(ev.Site) > sites {
				return fmt.Errorf("schedule[%d]: site %d out of range 1..%d", i, ev.Site, sites)
			}
		case EvMove:
			if int(ev.Site) < 1 || int(ev.Site) > sites || int(ev.From) < 1 || int(ev.From) > sites {
				return fmt.Errorf("schedule[%d]: move sites %d->%d out of range 1..%d", i, ev.From, ev.Site, sites)
			}
			if ev.Shard < 0 {
				return fmt.Errorf("schedule[%d]: negative shard %d", i, ev.Shard)
			}
		default:
			return fmt.Errorf("schedule[%d]: unknown event kind %d", i, ev.Kind)
		}
	}
	return nil
}

// cut lowers a partition or heal event, from at on, onto a cut timeline
// through set: a partition is its G2 from at and, when transient, an empty
// cut from its heal; a heal, or a partition whose window is already past,
// is an empty cut. set supersedes what is pending from at on, so a later
// onset replaces the boundary in force and a heal at or before an onset
// neutralizes it.
func (ev Event) cut(at sim.Time, set func(sim.Time, ...proto.SiteID)) {
	if ev.Kind == EvHeal || ev.Heal != 0 && ev.Heal <= at {
		set(at)
		return
	}
	set(at, ev.G2...)
	if ev.Heal != 0 {
		set(ev.Heal)
	}
}

// compile lowers the schedule's partitions and heals, in time order, onto
// a cut timeline through set, and returns the crash, recovery and
// membership events untouched.
func (s Schedule) compile(set func(sim.Time, ...proto.SiteID)) (rest Schedule) {
	for _, ev := range s.Sorted() {
		switch ev.Kind {
		case EvPartition, EvHeal:
			ev.cut(ev.At, set)
		default:
			rest = append(rest, ev)
		}
	}
	return rest
}
