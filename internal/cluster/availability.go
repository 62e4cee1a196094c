package cluster

import (
	"fmt"

	"termproto/internal/db/engine"
	"termproto/internal/lease"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/quorum"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// leaseKeeper is the simulator's bookkeeping for partition-local
// availability: one lease table per site, granted from the placement
// directory and renewed through the protocol's own decision path. It is
// nil when leasing is disabled (Config.LeaseTTL <= 0 or no directory),
// and every method is nil-safe so the backend threads it without
// branching.
type leaseKeeper struct {
	dir    *placement.Directory
	tables map[proto.SiteID]*lease.Table
	rec    *trace.Recorder
}

// newLeaseKeeper builds the keeper for a backend, or nil when the
// config does not enable leasing.
func newLeaseKeeper(cfg Config, rec *trace.Recorder) *leaseKeeper {
	if cfg.LeaseTTL <= 0 || cfg.Directory == nil {
		return nil
	}
	k := &leaseKeeper{
		dir:    cfg.Directory,
		tables: make(map[proto.SiteID]*lease.Table, cfg.Sites),
		rec:    rec,
	}
	// Every provisioned site gets a table up front — the map is never
	// written after construction, so lookups need no lock.
	observe := cfg.metrics.leaseObserver()
	for i := 1; i <= cfg.Sites; i++ {
		t := lease.New(cfg.LeaseTTL)
		t.SetObserver(observe)
		k.tables[proto.SiteID(i)] = t
	}
	return k
}

// table returns one site's lease table (nil when leasing is disabled,
// which lease.Table methods treat as "always holds").
func (k *leaseKeeper) table(site proto.SiteID) *lease.Table {
	if k == nil {
		return nil
	}
	return k.tables[site]
}

// seed grants the initial leases: every member of the directory's
// current assignment holds each shard it replicates, at the current
// epoch.
func (k *leaseKeeper) seed(now sim.Time) {
	if k == nil {
		return
	}
	e, asg := k.dir.Current()
	for _, site := range asg.Members() {
		k.regrant(site, e, asg, now)
	}
}

// regrant installs a site's leases under an assignment at an epoch:
// shards the site replicates are granted, shards it no longer
// replicates are dropped. Called at seeding and when the site commits
// a directory epoch record.
func (k *leaseKeeper) regrant(site proto.SiteID, e placement.Epoch, asg *placement.Assignment, now sim.Time) {
	t := k.tables[site]
	if t == nil {
		return
	}
	for s := 0; s < asg.Shards(); s++ {
		if containsSite(asg.Replicas(s), site) {
			t.Grant(s, e, now)
			k.emit(trace.LeaseGrant, site, now, fmt.Sprintf("shard=%d epoch=%d", s, e))
		} else {
			t.Drop(s)
		}
	}
}

// onDecide is the renewal hook, run at each site's decision point. A
// committed epoch record re-grants under the new epoch; any decision on
// a shard the site still replicates extends the lease — the decision
// itself is the evidence the replica group still answers for the shard.
func (k *leaseKeeper) onDecide(site proto.SiteID, payload []byte, o proto.Outcome, now sim.Time) {
	if k == nil {
		return
	}
	t := k.tables[site]
	if t == nil {
		return
	}
	if o == proto.Commit {
		for _, op := range epochOps(payload) {
			e, _ := placement.ParseEpochKey(op.Key)
			if asg, err := placement.DecodeAssignment(op.Value); err == nil {
				k.regrant(site, e, asg, now)
			}
		}
	}
	_, asg := k.dir.Current()
	for _, g := range quorum.GroupsFor(asg, payload) {
		if !containsSite(g.Replicas, site) {
			continue
		}
		renewed, lapsed := t.Extend(g.Shard, now)
		if renewed {
			k.emit(trace.LeaseRenew, site, now, fmt.Sprintf("shard=%d", g.Shard))
		} else if lapsed {
			k.emit(trace.LeaseExpire, site, now, fmt.Sprintf("shard=%d", g.Shard))
		}
	}
}

func (k *leaseKeeper) emit(kind trace.EventKind, site proto.SiteID, now sim.Time, detail string) {
	if k.rec == nil {
		return
	}
	k.rec.Append(trace.Event{At: now, Kind: kind, Site: int(site), Detail: detail})
}

// epochOps returns the durable placement-epoch records in a payload —
// OpEpoch ops carrying an encoded assignment under a reserved key.
func epochOps(payload []byte) []engine.Op {
	ops, err := engine.DecodeOps(payload)
	if err != nil {
		return nil
	}
	var out []engine.Op
	for _, op := range ops {
		if op.Kind == engine.OpEpoch && len(op.Value) > 0 && placement.IsReserved(op.Key) {
			if _, ok := placement.ParseEpochKey(op.Key); ok {
				out = append(out, op)
			}
		}
	}
	return out
}

// traceQuorum emits one QuorumEval event per replica group a submitted
// transaction touches, evaluated against the caller's reachability
// predicate. Observability only: the evaluation does not gate the
// submission, and the event kind is invisible to the Section 6
// classifier.
func traceQuorum(rec *trace.Recorder, cfg Config, t Txn, ok func(proto.SiteID) bool, now sim.Time) {
	if (rec == nil && cfg.metrics == nil) || cfg.Directory == nil {
		return
	}
	_, asg := cfg.Directory.Current()
	for _, g := range quorum.GroupsFor(asg, t.Payload) {
		met := quorum.Eval(g, ok, cfg.Quorum)
		cfg.metrics.quorumEval(met)
		if rec == nil {
			continue
		}
		rec.Append(trace.Event{
			At: now, Kind: trace.QuorumEval, Site: int(t.Master), TID: uint64(t.ID),
			Detail: fmt.Sprintf("shard=%d rule=%s met=%t", g.Shard, cfg.Quorum, met),
		})
	}
}
