package cluster_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// criticalInstants are the virtual times where the protocol's behaviour
// changes discontinuously under Fixed{T} latency: round boundaries (xact,
// yes, prepare, ack, commit arrivals) and the timer deadlines.
func criticalInstants() []sim.Time {
	var out []sim.Time
	for _, base := range []sim.Time{Tt, 2 * Tt, 3 * Tt, 4 * Tt, 5 * Tt, 6 * Tt} {
		for delta := sim.Time(-2); delta <= 2; delta++ {
			if base+delta >= 0 {
				out = append(out, base+delta)
			}
		}
	}
	return out
}

// Tick-granular resilience at the critical instants: the paper's protocol
// must hold exactly at the boundaries where ties and bounces flip, under
// both boundary-position models.
func TestTerminationCriticalInstantSweep(t *testing.T) {
	for _, frac := range []float64{1.0, 0.5} {
		for _, split := range [][]proto.SiteID{{3}, {2, 3}, {3, 4}} {
			for _, at := range criticalInstants() {
				r, b := cluster.RunOne(cluster.Config{
					Sites: 4, Protocol: core.Protocol{}, Schedule: partitionAt(at, split...),
				}, cluster.SimOptions{Latency: simnet.Fixed{D: T}, BoundaryFrac: frac, RecordTrace: true}, cluster.Txn{})
				if !r.Consistent() {
					t.Fatalf("f=%.1f split=%v onset=%d: INCONSISTENT\n%s",
						frac, split, at, b.Trace().Dump())
				}
				if len(r.Blocked()) != 0 {
					t.Fatalf("f=%.1f split=%v onset=%d: blocked %v\n%s",
						frac, split, at, r.Blocked(), b.Trace().Dump())
				}
				// The G2-commit law at every critical instant.
				prepCrossed := b.Trace().CrossDelivered("prepare") > 0
				g2Commit := r.Sites[split[len(split)-1]].Outcome == proto.Commit
				if prepCrossed != g2Commit {
					t.Fatalf("f=%.1f split=%v onset=%d: law violated (crossed=%v commit=%v)\n%s",
						frac, split, at, prepCrossed, g2Commit, b.Trace().Dump())
				}
			}
		}
	}
}

// The same sweep for the Theorem 10 four-phase instance, with its extra
// critical boundaries (the pre/preack round shifts everything by 2T).
func TestFourPCCriticalInstantSweep(t *testing.T) {
	instants := criticalInstants()
	for delta := sim.Time(-2); delta <= 2; delta++ {
		instants = append(instants, 7*Tt+delta, 8*Tt+delta)
	}
	for _, at := range instants {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: core.Protocol{FourPhase: true}, Schedule: partitionAt(at, 3, 4),
		}, cluster.SimOptions{Latency: simnet.Fixed{D: T}, RecordTrace: true}, cluster.Txn{})
		if !r.Consistent() || len(r.Blocked()) != 0 {
			t.Fatalf("4pc onset=%d: consistent=%v blocked=%v\n%s",
				at, r.Consistent(), r.Blocked(), b.Trace().Dump())
		}
	}
}

// Transient partitions with tick-granular heal times around the critical
// instants: heal edges are where case 3.2.2.2 and the probe races live.
func TestTerminationTransientCriticalHeals(t *testing.T) {
	onsets := []sim.Time{2*Tt + 1, 3*Tt + 1, 4*Tt + 1}
	for _, onset := range onsets {
		for _, healBase := range []sim.Time{onset + 1, 5 * Tt, 6 * Tt, 7 * Tt, 9 * Tt} {
			for delta := sim.Time(-1); delta <= 1; delta++ {
				heal := healBase + delta
				if heal <= onset {
					continue
				}
				r, b := cluster.RunOne(cluster.Config{
					Sites: 4, Protocol: core.Protocol{TransientFix: true},
					Schedule: cluster.Schedule{cluster.TransientPartitionAt(onset, heal, 3, 4)},
				}, cluster.SimOptions{Latency: simnet.Fixed{D: T}, RecordTrace: true}, cluster.Txn{})
				if !r.Consistent() {
					t.Fatalf("onset=%d heal=%d: INCONSISTENT\n%s", onset, heal, b.Trace().Dump())
				}
				if len(r.Blocked()) != 0 {
					t.Fatalf("onset=%d heal=%d: blocked %v\n%s", onset, heal, r.Blocked(), b.Trace().Dump())
				}
			}
		}
	}
}

// Site failures WITHOUT a partition: the termination protocol stays
// consistent among live sites for any single slave crash at any instant —
// the §7 assumption is only needed for failures DURING a partition.
func TestTerminationSlaveCrashWithoutPartition(t *testing.T) {
	for victim := proto.SiteID(2); victim <= 4; victim++ {
		for at := sim.Time(1); at <= 6*Tt; at += Tt / 4 {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{},
				Schedule: cluster.Schedule{cluster.CrashAt(at, victim)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("victim=%d crash=%d: INCONSISTENT among live sites\n%s",
					victim, at, b.Trace().Dump())
			}
			// Live sites must not block: the master's timeouts cover a
			// silent slave.
			for id, s := range r.Sites {
				if id != victim && s.Started && s.Outcome == proto.None {
					t.Fatalf("victim=%d crash=%d: live site %d blocked in %s\n%s",
						victim, at, id, s.FinalState, b.Trace().Dump())
				}
			}
		}
	}
}

// Vote/partition interaction battery: every combination of one no-voter,
// split membership and a coarse onset grid stays atomic and nonblocking.
func TestTerminationVotePartitionMatrix(t *testing.T) {
	for noVoter := proto.SiteID(2); noVoter <= 4; noVoter++ {
		for _, split := range [][]proto.SiteID{{2}, {3}, {4}, {2, 4}, {3, 4}} {
			for at := sim.Time(0); at <= 5*Tt; at += Tt / 2 {
				r, b := cluster.RunOne(cluster.Config{
					Sites: 4, Protocol: core.Protocol{}, Votes: proto.NoAt(noVoter),
					Schedule: partitionAt(at, split...),
				}, traced, cluster.Txn{})
				if !r.Consistent() {
					t.Fatalf("no@%d split=%v onset=%d: INCONSISTENT\n%s",
						noVoter, split, at, b.Trace().Dump())
				}
				if len(r.Blocked()) != 0 {
					t.Fatalf("no@%d split=%v onset=%d: blocked %v",
						noVoter, split, at, r.Blocked())
				}
				if r.Committed() {
					t.Fatalf("no@%d split=%v onset=%d: committed despite a no-vote",
						noVoter, split, at)
				}
			}
		}
	}
}

// Master votes no: instant abort everywhere, partition or not.
func TestTerminationMasterNoVoteUnderPartition(t *testing.T) {
	for at := sim.Time(0); at <= 3*Tt; at += Tt {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 3, Protocol: core.Protocol{}, Votes: proto.NoAt(1),
			Schedule: partitionAt(at, 3),
		}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() || r.Sites[1].Outcome != proto.Abort {
			t.Fatalf("onset %d: master no-vote mishandled", at)
		}
	}
}

// BoundaryFrac sweep: the boundary's position along the path must never
// affect correctness, only which messages pass.
func TestTerminationBoundaryFracSweep(t *testing.T) {
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		for at := sim.Time(Tt); at <= 5*Tt; at += Tt / 2 {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{}, Schedule: partitionAt(at, 3, 4),
			}, cluster.SimOptions{BoundaryFrac: frac, RecordTrace: true}, cluster.Txn{})
			if !r.Consistent() || len(r.Blocked()) != 0 {
				t.Fatalf("frac=%.2f onset=%d: consistent=%v blocked=%v\n%s",
					frac, at, r.Consistent(), r.Blocked(), b.Trace().Dump())
			}
		}
	}
}
