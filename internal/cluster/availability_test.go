package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// accountsOn returns account indices whose key lives on the given shard.
func accountsOn(asg *placement.Assignment, accounts, shard int) []int {
	var out []int
	for a := 0; a < accounts; a++ {
		if asg.ShardOf(fmt.Sprintf("acct/%d", a)) == shard {
			out = append(out, a)
		}
	}
	return out
}

// shardWithin returns a shard whose full replica set lies inside the
// given site set, or -1.
func shardWithin(asg *placement.Assignment, side map[proto.SiteID]bool) int {
	for s := 0; s < asg.Shards(); s++ {
		all := true
		for _, id := range asg.Replicas(s) {
			if !side[id] {
				all = false
				break
			}
		}
		if all {
			return s
		}
	}
	return -1
}

// Partition-local availability from placement alone: a partition cuts
// {4,5} off a 5-site sharded cluster, and the minority side hosts the
// full replica set of one shard. A transaction whose roster lies inside
// one side never meets the partition boundary, so transactions on that
// shard keep committing, decided inside the partition window, while
// cross-side transactions fall back to the termination protocol's
// bounded aborts. After the heal, everything converges: Verify finds
// nothing, nothing blocked, nothing inconsistent.
func TestMinorityPartitionKeepsLocalShardCommitting(t *testing.T) {
	const (
		sites, shards, accounts = 5, 5, 64
		cut, heal               = 5_000, 50_000
	)
	asg := mustAssignment(t, shards, 2, 1, 2, 3, 4, 5)
	d := placement.NewDirectory(asg)
	engs := directoryEngines(d, sites, accounts, 1_000)

	minority := map[proto.SiteID]bool{4: true, 5: true}
	majority := map[proto.SiteID]bool{1: true, 2: true, 3: true}
	minShard := shardWithin(asg, minority)
	majShard := shardWithin(asg, majority)
	if minShard < 0 || majShard < 0 {
		t.Fatalf("layout has no side-local shard: min=%d maj=%d", minShard, majShard)
	}
	minAccts := accountsOn(asg, accounts, minShard)
	majAccts := accountsOn(asg, accounts, majShard)
	if len(minAccts) < 8 || len(majAccts) < 8 {
		t.Fatalf("not enough accounts per shard: %d, %d", len(minAccts), len(majAccts))
	}

	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Backend:   NewSimBackend(SimOptions{Seed: 7}),
		Directory: d,
		Engines:   engs,
		Schedule:  Schedule{TransientPartitionAt(cut, heal, 4, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every directory member recovers its placement from replicated
	// state: the epoch-0 record sits in each engine's reserved range.
	rec0 := placement.EncodeAssignment(asg)
	for _, id := range asg.Members() {
		if got, ok := engs[id].Get(placement.EpochKey(0)); !ok || !bytes.Equal(got, rec0) {
			t.Fatalf("site %d missing epoch-0 directory record", id)
		}
	}

	// rosters holds each transaction's placement roster, read off the
	// assignment rather than the result the cluster filled in.
	rosters := map[*TxnResult][]proto.SiteID{}
	submit := func(from, to int, at sim.Time) *TxnResult {
		t.Helper()
		payload := transfer(from, to, 3)
		r, err := c.Submit(Txn{Payload: payload, At: at})
		if err != nil {
			t.Fatal(err)
		}
		rosters[r] = asg.ParticipantsFor(payload)
		return r
	}
	// within reports whether a roster is non-empty and lies inside side.
	within := func(roster []proto.SiteID, side map[proto.SiteID]bool) bool {
		for _, id := range roster {
			if !side[id] {
				return false
			}
		}
		return len(roster) > 0
	}
	// Concurrent transactions use disjoint account pairs so no outcome
	// hinges on a write-conflict no-vote; same-pair resubmissions are 12k
	// ticks apart, far past any decision latency.
	var minRes, majRes, crossRes []*TxnResult
	for i := 0; i < 5; i++ {
		at := sim.Time(8_000 + i*6_000) // 8k..32k, all inside the partition
		p := (i % 2) * 2
		minRes = append(minRes, submit(minAccts[p], minAccts[p+1], at))
		majRes = append(majRes, submit(majAccts[p], majAccts[p+1], at))
	}
	for _, at := range []sim.Time{12_000, 30_000} {
		crossRes = append(crossRes, submit(minAccts[4], majAccts[4], at))
	}
	// Post-heal traffic: both sides and a cross-shard transfer all go
	// through again.
	postMin := submit(minAccts[5], minAccts[6], 55_000)
	postCross := submit(majAccts[5], minAccts[7], 56_000)

	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	// The headline: shard-local traffic on BOTH sides committed during
	// the partition window, not after the heal, because placement kept
	// each roster on one side of the cut.
	for _, g := range []struct {
		name string
		side map[proto.SiteID]bool
		rs   []*TxnResult
	}{{"minority", minority, minRes}, {"majority", majority, majRes}} {
		for _, r := range g.rs {
			if !within(rosters[r], g.side) {
				t.Fatalf("%s txn %d: roster %v leaves its side", g.name, r.TID, rosters[r])
			}
			if !r.Committed() {
				t.Fatalf("%s txn %d: outcome %v, want commit", g.name, r.TID, r.Outcome())
			}
			for id, so := range r.Sites {
				if so.DecidedAt <= cut || so.DecidedAt >= heal {
					t.Fatalf("%s txn %d decided at %d on site %d, outside partition window (%d,%d)",
						g.name, r.TID, so.DecidedAt, id, cut, heal)
				}
			}
		}
	}
	// Cross-side transactions span the cut (the two sides cover every
	// site, so a roster inside neither has a site on each): they must
	// still decide (the transient-partition fix aborts rather than blocks).
	for _, r := range crossRes {
		if within(rosters[r], minority) || within(rosters[r], majority) {
			t.Fatalf("cross txn %d: roster %v does not span the cut", r.TID, rosters[r])
		}
		if r.Outcome() == proto.None {
			t.Fatalf("cross txn %d never decided", r.TID)
		}
		if r.Committed() {
			t.Fatalf("cross txn %d committed across the cut", r.TID)
		}
	}
	if !postMin.Committed() || !postCross.Committed() {
		t.Fatalf("post-heal txns: min=%v cross=%v, want both committed",
			postMin.Outcome(), postCross.Outcome())
	}

	mustVerify(t, c)
	st := c.Stats()
	if st.Blocked != 0 || st.Inconsistent != 0 || st.Committed < 12 {
		t.Fatalf("stats: %v", st)
	}
}
