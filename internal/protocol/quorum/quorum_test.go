package quorum_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
	"termproto/internal/protocol/quorum"
	"termproto/internal/sim"
)

const T = sim.DefaultT

// traced keeps the trace a failure message dumps.
var traced = cluster.SimOptions{RecordTrace: true}

func TestQuorumFailureFree(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7} {
		r, _ := cluster.RunOne(cluster.Config{Sites: n, Protocol: quorum.Protocol{}}, cluster.SimOptions{}, cluster.Txn{})
		for id, s := range r.Sites {
			if s.Outcome != proto.Commit {
				t.Fatalf("n=%d site %d = %v, want commit", n, id, s.Outcome)
			}
		}
	}
}

func TestQuorumAbortOnNoVote(t *testing.T) {
	r, _ := cluster.RunOne(cluster.Config{Sites: 5, Protocol: quorum.Protocol{}, Votes: proto.NoAt(4)}, cluster.SimOptions{}, cluster.Txn{})
	if !r.Consistent() {
		t.Fatal("inconsistent on no-vote")
	}
	if r.Sites[1].Outcome != proto.Abort {
		t.Fatalf("master = %v, want abort", r.Sites[1].Outcome)
	}
}

// The headline contrast with the paper's protocol: a minority partition
// BLOCKS under quorum commit. Majority G1 {1,2,3} decides; minority G2
// {4,5} can never assemble either quorum and stays blocked.
func TestQuorumMinorityBlocks(t *testing.T) {
	r, b := cluster.RunOne(cluster.Config{
		Sites: 5, Protocol: quorum.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(sim.Time(T)+1, 4, 5)},
	}, traced, cluster.Txn{})
	if !r.Consistent() {
		t.Fatalf("quorum protocol inconsistent\n%s", b.Trace().Dump())
	}
	blocked := r.Blocked()
	if len(blocked) != 2 || blocked[0] != 4 || blocked[1] != 5 {
		t.Fatalf("blocked = %v, want the minority [4 5]\n%s", blocked, b.Trace().Dump())
	}
	// The majority partition must have decided.
	for _, id := range []proto.SiteID{1, 2, 3} {
		if r.Sites[id].Outcome == proto.None {
			t.Fatalf("majority site %d undecided", id)
		}
	}
}

// When the master lands in the minority, the majority of slaves can still
// terminate via the abort quorum (nobody prepared).
func TestQuorumMajoritySlavesAbortWithoutMaster(t *testing.T) {
	// Partition before prepares exist: master+site2 in G2... here G2 holds
	// the master side, so name the split so sites {3,4,5} are the majority
	// cut off from the master.
	r, b := cluster.RunOne(cluster.Config{
		Sites: 5, Protocol: quorum.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(sim.Time(T)+1, 3, 4, 5)},
	}, traced, cluster.Txn{})
	if !r.Consistent() {
		t.Fatalf("inconsistent\n%s", b.Trace().Dump())
	}
	for _, id := range []proto.SiteID{3, 4, 5} {
		if got := r.Sites[id].Outcome; got != proto.Abort {
			t.Fatalf("majority-side site %d = %v, want abort (no prepared state, abort quorum)\n%s",
				id, got, b.Trace().Dump())
		}
	}
}

// Quorum safety sweep: outcomes never conflict across the boundary, for
// any onset; blocking is allowed (that is its known cost).
func TestQuorumNeverInconsistent(t *testing.T) {
	for _, split := range [][]proto.SiteID{{5}, {4, 5}, {3, 4, 5}, {2, 3, 4, 5}} {
		for at := sim.Time(0); at <= 8*sim.Time(T); at += sim.Time(T) / 2 {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 5, Protocol: quorum.Protocol{},
				Schedule: cluster.Schedule{cluster.PartitionAt(at, split...)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("split %v onset %d: INCONSISTENT\n%s", split, at, b.Trace().Dump())
			}
		}
	}
}

// After a prepared state exists in the majority partition, the surrogate
// commits it.
func TestQuorumMajorityCommitsAfterPrepare(t *testing.T) {
	// Prepares delivered at 3T; partition at 3T+1 cuts {4,5} (minority)
	// with everyone already in p. Master is in G1 with 3 sites >= Vc=3.
	r, b := cluster.RunOne(cluster.Config{
		Sites: 5, Protocol: quorum.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(3*sim.Time(T)+1, 4, 5)},
	}, traced, cluster.Txn{})
	if !r.Consistent() {
		t.Fatalf("inconsistent\n%s", b.Trace().Dump())
	}
	for _, id := range []proto.SiteID{1, 2, 3} {
		if got := r.Sites[id].Outcome; got != proto.Commit {
			t.Fatalf("site %d = %v, want commit via quorum termination\n%s", id, got, b.Trace().Dump())
		}
	}
	for _, id := range []proto.SiteID{4, 5} {
		if got := r.Sites[id].Outcome; got == proto.Abort {
			t.Fatalf("minority site %d aborted against majority commit", id)
		}
	}
}

func TestQuorumRunsQuiesceWithBoundedRetries(t *testing.T) {
	r, b := cluster.RunOne(cluster.Config{
		Sites: 5, Protocol: quorum.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(1, 5)},
	}, traced, cluster.Txn{})
	// Site 5 alone can never decide; the run must still reach quiescence.
	if b.Now() == 0 {
		t.Fatal("run did not advance")
	}
	if got := r.Sites[5].Outcome; got != proto.None {
		t.Fatalf("singleton partition decided %v", got)
	}
}
