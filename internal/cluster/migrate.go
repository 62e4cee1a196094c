package cluster

import (
	"fmt"
	"sync"

	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
)

// MigrationKind classifies a membership change.
type MigrationKind string

// Membership-change kinds.
const (
	MigrationJoin  MigrationKind = "join"
	MigrationLeave MigrationKind = "leave"
	MigrationMove  MigrationKind = "move"
)

// MigrationReport records one Join/Leave/MoveShard execution: what moved,
// the epoch-bump transaction that made it official, and how it ended.
// Fields settle once Done is true (after the Wait covering the epoch-bump
// transaction).
type MigrationReport struct {
	Kind MigrationKind
	// Site is the joining/leaving site, or the move's destination.
	Site proto.SiteID
	// Shard and From are set for MigrationMove.
	Shard int
	From  proto.SiteID
	// TID is the epoch-bump metadata transaction (0 when the change was
	// trivial enough to need none).
	TID proto.TxnID
	// ShardsMoved counts shard-replica moves; KeysMigrated counts keys
	// copied to new replicas through the catch-up machinery.
	ShardsMoved  int
	KeysMigrated int
	// Epoch is the directory epoch after the migration (set on commit).
	Epoch placement.Epoch
	// Committed reports whether the epoch bump committed; Done whether
	// the migration reached a verdict at all.
	Committed bool
	Done      bool
	// Err is set when the migration could not run (invalid transition, no
	// reachable donor for a required copy, submission failure).
	Err error

	// reconcile lists the (shard, added replica) pairs the cluster pulls
	// once more at the Wait boundary, covering writes from transactions
	// admitted under the old epoch (see Cluster.reconcileMigrated).
	reconcile []reconcileItem
}

// String renders the report in one line.
func (r *MigrationReport) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s site %d failed: %v", r.Kind, r.Site, r.Err)
	}
	verdict := "in flight"
	switch {
	case r.Committed:
		verdict = fmt.Sprintf("committed (epoch %d)", r.Epoch)
	case r.Done:
		verdict = "aborted"
	}
	return fmt.Sprintf("%s site %d: %d shard moves, %d keys migrated, txn %d %s",
		r.Kind, r.Site, r.ShardsMoved, r.KeysMigrated, r.TID, verdict)
}

// Join adds a provisioned site to the membership: shards rebalance onto
// it (contents copied from current replicas), and the new assignment
// takes effect when the epoch-bump transaction commits through the
// cluster's commit protocol. Join drives the timeline until the
// migration decides and returns the settled report.
func (c *Cluster) Join(site proto.SiteID) (*MigrationReport, error) {
	return c.finishSync(c.beginJoin(site))
}

// Leave drains a member: every shard it replicates is copied to a
// replacement replica first, then the epoch bump commits the shrunken
// membership — no committed write is lost.
func (c *Cluster) Leave(site proto.SiteID) (*MigrationReport, error) {
	return c.finishSync(c.beginLeave(site))
}

// MoveShard hands one shard replica from one member to another — the
// targeted rebalancing primitive underneath Join and Leave's bulk moves.
func (c *Cluster) MoveShard(shard int, from, to proto.SiteID) (*MigrationReport, error) {
	return c.finishSync(c.beginMove(shard, from, to))
}

// finishSync drives the timeline over an initiated migration and returns
// its settled report.
func (c *Cluster) finishSync(rep *MigrationReport) (*MigrationReport, error) {
	if rep.Err != nil {
		return rep, rep.Err
	}
	if err := c.Wait(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Migrations returns every membership change initiated so far (scheduled
// events and direct calls), in execution order.
func (c *Cluster) Migrations() []*MigrationReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*MigrationReport(nil), c.migrations...)
}

// applyMembershipEvent runs a scheduled EvJoin/EvLeave/EvMove at its
// timeline position — the backends call it through Config.migrate.
func (c *Cluster) applyMembershipEvent(ev Event) {
	switch ev.Kind {
	case EvJoin:
		c.beginJoin(ev.Site)
	case EvLeave:
		c.beginLeave(ev.Site)
	case EvMove:
		c.beginMove(ev.Shard, ev.From, ev.Site)
	}
}

func (c *Cluster) beginJoin(site proto.SiteID) *MigrationReport {
	rep := &MigrationReport{Kind: MigrationJoin, Site: site}
	c.record(rep)
	d := c.cfg.Directory
	if d == nil {
		return c.fail(rep, fmt.Errorf("cluster: membership changes need a Directory"))
	}
	if int(site) < 1 || int(site) > c.cfg.Sites {
		return c.fail(rep, fmt.Errorf("cluster: site %d outside provisioned range 1..%d", site, c.cfg.Sites))
	}
	_, cur := d.Current()
	next, err := cur.WithJoin(site)
	if err != nil {
		return c.fail(rep, err)
	}
	return c.runMigration(rep, cur, next)
}

func (c *Cluster) beginLeave(site proto.SiteID) *MigrationReport {
	rep := &MigrationReport{Kind: MigrationLeave, Site: site}
	c.record(rep)
	d := c.cfg.Directory
	if d == nil {
		return c.fail(rep, fmt.Errorf("cluster: membership changes need a Directory"))
	}
	_, cur := d.Current()
	next, err := cur.WithLeave(site)
	if err != nil {
		return c.fail(rep, err)
	}
	return c.runMigration(rep, cur, next)
}

func (c *Cluster) beginMove(shard int, from, to proto.SiteID) *MigrationReport {
	rep := &MigrationReport{Kind: MigrationMove, Site: to, Shard: shard, From: from}
	c.record(rep)
	d := c.cfg.Directory
	if d == nil {
		return c.fail(rep, fmt.Errorf("cluster: membership changes need a Directory"))
	}
	_, cur := d.Current()
	next, err := cur.WithMove(shard, from, to)
	if err != nil {
		return c.fail(rep, err)
	}
	return c.runMigration(rep, cur, next)
}

func (c *Cluster) record(rep *MigrationReport) {
	c.mu.Lock()
	c.migrations = append(c.migrations, rep)
	c.mu.Unlock()
}

func (c *Cluster) fail(rep *MigrationReport, err error) *MigrationReport {
	c.mu.Lock()
	rep.Err, rep.Done = err, true
	c.mu.Unlock()
	return rep
}

// runMigration executes a membership change as a data-migration
// transaction: the pending assignment is installed (so new replicas
// accept their incoming shards), shard contents are copied to every new
// replica through the recovery catch-up machinery, and the epoch bump is
// submitted as a metadata transaction across the union of the old and new
// replica sets of every moved shard — so a partition mid-migration leaves
// an ordinary in-doubt transaction for the termination protocol, and both
// sides converge on the same epoch.
func (c *Cluster) runMigration(rep *MigrationReport, cur, next *placement.Assignment) *MigrationReport {
	d := c.cfg.Directory
	moves := placement.Diff(cur, next)
	if err := d.SetPending(next); err != nil {
		return c.fail(rep, err)
	}
	copied, err := c.copyMoves(moves)
	if err != nil {
		d.ClearPending()
		return c.fail(rep, err)
	}
	shardsMoved := 0
	var reconcile []reconcileItem
	for _, mv := range moves {
		shardsMoved += len(mv.Added) + len(mv.Removed)
		for _, id := range mv.Added {
			reconcile = append(reconcile, reconcileItem{shard: mv.Shard, site: id})
		}
	}
	c.mu.Lock()
	rep.KeysMigrated, rep.ShardsMoved = copied, shardsMoved
	rep.reconcile = reconcile
	c.mu.Unlock()

	// The epoch-bump transaction replicates the new assignment itself: its
	// one op writes the encoded assignment under the reserved directory
	// key for the next epoch, so every participant that commits it holds
	// the record durably in its own WAL — placement history recovers from
	// the log alone, with no host-side bootstrap. The roster is therefore
	// the union of old and new members, not just the moved shards' replica
	// sets: a member whose shards did not move still must learn the epoch.
	nextEpoch := d.Epoch() + 1
	aff := memberUnion(cur, next)
	if len(aff) < 2 {
		// A single-member directory: no distributed decision to make, the
		// bump is local bookkeeping — but the record still lands durably.
		c.writeEpochRecords(aff, nextEpoch, next)
		e := d.CommitPending()
		c.mu.Lock()
		rep.Committed, rep.Done, rep.Epoch = true, true, e
		c.shardsMoved += shardsMoved
		c.keysMigrated += copied
		c.mu.Unlock()
		return rep
	}

	// The coordinator must survive the change and should be a site the
	// change actually touches: the lowest old-or-new replica of a moved
	// shard that is still a member afterwards, falling back to the lowest
	// surviving member. (Members whose shards did not move are in the
	// roster to durably record the epoch, not to coordinate it.)
	touched := make(map[proto.SiteID]bool)
	for _, mv := range moves {
		for _, id := range mv.Old {
			touched[id] = true
		}
		for _, id := range mv.New {
			touched[id] = true
		}
	}
	var master proto.SiteID
	for _, id := range aff {
		if touched[id] && next.IsMember(id) {
			master = id
			break
		}
	}
	if master == 0 {
		for _, id := range aff {
			if next.IsMember(id) {
				master = id
				break
			}
		}
	}
	payload := engine.EncodeOps([]engine.Op{{
		Kind:  engine.OpEpoch,
		Key:   placement.EpochKey(nextEpoch),
		Value: placement.EncodeAssignment(next),
	}})
	var once sync.Once
	t := Txn{
		Master:  master,
		Sites:   aff,
		Payload: payload,
		At:      c.backend.Now(),
	}
	t.onDecided = func(_ proto.SiteID, o proto.Outcome) {
		once.Do(func() { c.finishMigration(rep, o) })
	}
	r, err := c.Submit(t)
	if err != nil {
		d.ClearPending()
		return c.fail(rep, err)
	}
	c.mu.Lock()
	rep.TID = r.TID
	c.mu.Unlock()
	return rep
}

// finishMigration applies the epoch-bump transaction's verdict: commit
// advances the directory (and schedules the leaver's retirement); abort
// abandons the pending assignment — the copied bytes sit at sites the
// current epoch does not consult, invisible and harmless.
func (c *Cluster) finishMigration(rep *MigrationReport, o proto.Outcome) {
	d := c.cfg.Directory
	if o != proto.Commit {
		d.ClearPending()
		c.mu.Lock()
		rep.Done = true
		c.mu.Unlock()
		return
	}
	e := d.CommitPending()
	c.mu.Lock()
	rep.Committed, rep.Done, rep.Epoch = true, true, e
	c.shardsMoved += rep.ShardsMoved
	c.keysMigrated += rep.KeysMigrated
	// In-flight transactions admitted under the old epoch terminate at
	// their admission-epoch participants; the replicas this migration
	// added converge through one more catch-up at the Wait boundary.
	for _, it := range rep.reconcile {
		c.pendingReconcile = append(c.pendingReconcile, it)
	}
	c.mu.Unlock()
}

// copyMoves copies every moved shard's contents to its new replicas: for
// each (shard, added site), the first reachable old replica donates
// (copyShard).
func (c *Cluster) copyMoves(moves []placement.Move) (int, error) {
	total := 0
	for _, mv := range moves {
		for _, dst := range mv.Added {
			n, ok := c.copyShard(dst, mv.Shard, mv.Old)
			total += n
			if !ok {
				return total, fmt.Errorf("cluster: shard %d has no donor among %v able to serve new replica %d",
					mv.Shard, mv.Old, dst)
			}
		}
	}
	return total, nil
}

// memberUnion is the ascending union of two assignments' memberships —
// the epoch-bump transaction's participant roster: every site that holds
// data before or after the change must durably record the new epoch.
func memberUnion(cur, next *placement.Assignment) []proto.SiteID {
	out := cur.Members()
	for _, id := range next.Members() {
		if !containsSite(out, id) {
			out = insertSite(out, id)
		}
	}
	return out
}

// writeEpochRecords lands the epoch record directly (RecApply) at the
// given sites' engines — the non-distributed path for trivial bumps.
func (c *Cluster) writeEpochRecords(sites []proto.SiteID, e placement.Epoch, asg *placement.Assignment) {
	key, rec := placement.EpochKey(e), placement.EncodeAssignment(asg)
	for _, id := range sites {
		if eng, ok := recoveryEngine(c.cfg, id); ok {
			if _, have := eng.Get(key); !have {
				eng.Put(key, rec)
			}
		}
	}
}
