// The Theorem 10 sweeps: the construction over the four-phase substrate,
// run on whole simulated clusters.
package core_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

const T = sim.DefaultT

// traced keeps the trace a failure message dumps.
var traced = cluster.SimOptions{RecordTrace: true}

func TestFourPCFailureFree(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		r, _ := cluster.RunOne(cluster.Config{Sites: n, Protocol: core.Protocol{FourPhase: true}}, cluster.SimOptions{}, cluster.Txn{})
		for id, s := range r.Sites {
			if s.Outcome != proto.Commit {
				t.Fatalf("n=%d site %d = %v, want commit", n, id, s.Outcome)
			}
		}
	}
}

func TestFourPCAborts(t *testing.T) {
	for _, v := range []proto.Voter{proto.NoAt(2), proto.NoAt(1), proto.NoAt(3, 4)} {
		r, _ := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{FourPhase: true}, Votes: v}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			t.Fatal("inconsistent on no-vote")
		}
		if r.Sites[1].Outcome != proto.Abort {
			t.Fatalf("master = %v, want abort", r.Sites[1].Outcome)
		}
	}
}

// Theorem 10: the termination construction generalized to four phases is
// resilient to permanent simple partitioning — same sweep as Theorem 9.
func TestFourPCPermanentPartitionSweep(t *testing.T) {
	splits := [][]proto.SiteID{{2}, {4}, {2, 3}, {3, 4}, {2, 3, 4}}
	for _, split := range splits {
		for at := sim.Time(0); at <= 10*sim.Time(T); at += sim.Time(T) / 4 {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{FourPhase: true},
				Schedule: cluster.Schedule{cluster.PartitionAt(at, split...)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("split %v onset %d: INCONSISTENT\n%s", split, at, b.Trace().Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("split %v onset %d: blocked %v\n%s", split, at, r.Blocked(), b.Trace().Dump())
			}
		}
	}
}

// The G2-commit law holds for the generalized protocol too: G2 commits iff
// a prepare (the committable-transition message) crossed B.
func TestFourPCG2CommitLaw(t *testing.T) {
	for at := sim.Time(0); at <= 10*sim.Time(T); at += sim.Time(T) / 8 {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: core.Protocol{FourPhase: true},
			Schedule: cluster.Schedule{cluster.PartitionAt(at, 3, 4)},
		}, traced, cluster.Txn{})
		if !r.Consistent() || len(r.Blocked()) != 0 {
			t.Fatalf("onset %d: consistent=%v blocked=%v\n%s",
				at, r.Consistent(), r.Blocked(), b.Trace().Dump())
		}
		prepCrossed := b.Trace().CrossDelivered("prepare") > 0
		if g2Commit := r.Sites[3].Outcome == proto.Commit; g2Commit != prepCrossed {
			t.Fatalf("onset %d: prepare crossed=%v, G2 commit=%v\n%s",
				at, prepCrossed, g2Commit, b.Trace().Dump())
		}
	}
}

// Randomized sweep with mixed latencies and votes.
func TestFourPCRandomized(t *testing.T) {
	rng := sim.NewRand(14)
	runs := 200
	if testing.Short() {
		runs = 40
	}
	for i := 0; i < runs; i++ {
		n := 3 + rng.Intn(4)
		var split []proto.SiteID
		for s := 2; s <= n; s++ {
			if rng.Bool() {
				split = append(split, proto.SiteID(s))
			}
		}
		if len(split) == 0 {
			split = []proto.SiteID{proto.SiteID(n)}
		}
		r, b := cluster.RunOne(cluster.Config{
			Sites: n, Protocol: core.Protocol{FourPhase: true, TransientFix: rng.Bool()},
			Schedule: cluster.Schedule{cluster.PartitionAt(sim.Time(rng.Int63n(int64(11*T))), split...)},
		}, cluster.SimOptions{
			Latency:     simnet.Uniform{Lo: sim.Duration(T) / 4, Hi: T},
			Seed:        rng.Uint64(),
			RecordTrace: true,
		}, cluster.Txn{})
		if !r.Consistent() {
			t.Fatalf("run %d: INCONSISTENT\n%s", i, b.Trace().Dump())
		}
		if len(r.Blocked()) != 0 {
			t.Fatalf("run %d: blocked %v\n%s", i, r.Blocked(), b.Trace().Dump())
		}
	}
}

// Transient partitions with the §6 fix generalized.
func TestFourPCTransient(t *testing.T) {
	for onset := sim.Time(0); onset <= 8*sim.Time(T); onset += sim.Time(T) {
		for _, healDelta := range []sim.Time{1, 2 * sim.Time(T), 5 * sim.Time(T)} {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{FourPhase: true, TransientFix: true},
				Schedule: cluster.Schedule{cluster.TransientPartitionAt(onset, onset+healDelta, 3, 4)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("onset %d heal +%d: INCONSISTENT\n%s", onset, healDelta, b.Trace().Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("onset %d heal +%d: blocked %v\n%s",
					onset, healDelta, r.Blocked(), b.Trace().Dump())
			}
		}
	}
}
