package chaos

import (
	"slices"
	"strings"
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// T is the timeout period in ticks.
const T = sim.Time(sim.DefaultT)

// Spacings: overlapping keeps 6–8 transfers in flight at once; sequential
// lets each transfer quiesce, under a partition too, before the next.
const (
	overlapping = sim.Duration(T / 2)
	sequential  = sim.Duration(32 * T)
)

// submitted is when transfer i (1-based) of sc is submitted.
func submitted(sc Scenario, i int) sim.Time { return sim.Time(int64(sc.Spacing) * int64(i)) }

// partitioned adds one transient partition per listed transfer, as the
// generator draws them: it rises at an onset drawn within 6T of that
// transfer's submission, splits off a G2 drawn from sites 2..n, and heals
// at heal(submission, onset).
func partitioned(sc Scenario, transfers []int, heal func(submit, onset sim.Time) sim.Time) Scenario {
	rng := sim.NewRand(sc.Seed)
	for _, i := range transfers {
		submit := submitted(sc, i)
		onset := submit + sim.Time(rng.Int63n(int64(6*T)))
		var g2 []proto.SiteID
		for s := 2; s <= sc.Sites; s++ {
			if rng.Bool() {
				g2 = append(g2, proto.SiteID(s))
			}
		}
		if len(g2) == sc.Sites-1 {
			g2 = g2[:len(g2)-1]
		}
		if len(g2) == 0 {
			g2 = []proto.SiteID{proto.SiteID(sc.Sites)}
		}
		sc.Schedule = append(sc.Schedule, cluster.TransientPartitionAt(onset, heal(submit, onset), g2...))
	}
	return sc
}

// every lists transfers k, 2k, ... up to n.
func every(k, n int) []int {
	var out []int
	for i := k; i <= n; i += k {
		out = append(out, i)
	}
	return out
}

// held keeps a partition up until just before the next transfer is
// submitted: the transfer it covers quiesces under it.
func held(sc Scenario) func(submit, onset sim.Time) sim.Time {
	return func(submit, _ sim.Time) sim.Time { return submit + sim.Time(sc.Spacing) - T }
}

// transient heals a partition 3T after its onset.
func transient(_, onset sim.Time) sim.Time { return onset + 3*T }

// quietAt fails unless every transfer submitted before at was decided by
// then at every site that decided it: the row's shape keeps restarts,
// membership changes and the heal of a held partition off in-flight
// transfers. The restarted sites, down from before at until a restart at
// or after it, are the exception: there a decision after at is the
// restart resolving what the site crashed in doubt about.
func quietAt(t *testing.T, r *Result, at sim.Time, restarted ...proto.SiteID) {
	t.Helper()
	for i, res := range r.Transfers {
		if submitted(r.Scenario, i+1) >= at {
			continue
		}
		for id, s := range res.Sites {
			if s.Outcome != proto.None && s.DecidedAt >= at && !slices.Contains(restarted, id) {
				t.Fatalf("transfer %d (txn %d) still deciding at %d (site %d decided at %d)", i+1, res.TID, at, id, s.DecidedAt)
			}
		}
	}
}

// crossShard reports whether some result ran at more than one shard's
// replica set.
func crossShard(r *Result) bool {
	for _, res := range r.Results {
		if len(res.Participants) > r.Scenario.RF {
			return true
		}
	}
	return false
}

// heldPartitions is the shape of a partitioned run under the termination
// protocol and under 2PC: 90 sequential transfers over 5 sites, every
// third one covered by a partition held until it quiesces.
func heldPartitions(protocol string) Scenario {
	sc := Scenario{
		Seed: 42, Family: Timeout, Protocol: protocol, Sites: 5,
		Accounts: 6, Balance: 5_000, Txns: 90, Spacing: sequential,
	}
	return partitioned(sc, every(3, sc.Txns), held(sc))
}

// checkHeld fails unless every partition of sc healed after the transfer
// it covers quiesced.
func checkHeld(t *testing.T, r *Result) {
	t.Helper()
	for _, ev := range r.Scenario.Schedule {
		if ev.Kind == cluster.EvPartition {
			quietAt(t, r, ev.Heal)
		}
	}
}

// The rows: the shapes of simulated banking traffic the generator does not
// draw — long sequential runs, held partitions, 2PC under partitions,
// overlapping sharded traffic, crashes inside the traffic, a spare that
// joins and leaves between transfers. Each runs through Run and is judged
// by Verify, and checks the property its shape exists for. The unsharded
// rows with odd seeds name round-robin masters, which Run used to pick by
// seed parity.
func TestRows(t *testing.T) {
	churn := sim.Duration(24 * T)

	concurrent := Scenario{
		Seed: 11, Family: Timeout, Protocol: "termination+transient", Sites: 4, Masters: "rr",
		Accounts: 12, Balance: 10_000, Txns: 60, Spacing: overlapping,
	}
	transientRun := Scenario{
		Seed: 7, Family: Timeout, Protocol: "termination+transient", Sites: 4, Masters: "rr",
		Accounts: 4, Balance: 2_000, Txns: 60, Spacing: sequential,
	}
	shardedPartitioned := Scenario{
		Seed: 23, Family: Timeout, Protocol: "termination+transient", Sites: 8, Shards: 8, RF: 3,
		Accounts: 16, Balance: 5_000, Txns: 60, Spacing: sequential,
	}
	facade := Scenario{
		Seed: 5, Family: Timeout, Protocol: "termination+transient", Sites: 3, Masters: "rr",
		Accounts: 3, Balance: 1_000, Txns: 12, Spacing: sequential,
	}
	// Churn: crashes strike inside the traffic, 1T after transfers 9, 25
	// and 41 are submitted, and the crashed sites restart, 2T apart, once
	// it has drained.
	recovers := Scenario{
		Seed: 7, Family: Stress, Protocol: "termination+transient", Sites: 5, Masters: "rr",
		Accounts: 10, Balance: 10_000, Txns: 48, Spacing: overlapping,
	}
	drained := submitted(recovers, recovers.Txns) + 12*T
	recovers.Schedule = cluster.Schedule{
		cluster.CrashAt(submitted(recovers, 9)+T, 2), cluster.RecoverAt(drained, 2),
		cluster.CrashAt(submitted(recovers, 25)+T, 4), cluster.RecoverAt(drained+2*T, 4),
		cluster.CrashAt(submitted(recovers, 41)+T, 5), cluster.RecoverAt(drained+4*T, 5),
	}
	shardedChurn := Scenario{
		Seed: 21, Family: Stress, Protocol: "termination+transient", Sites: 6, Shards: 6, RF: 3,
		Accounts: 18, Balance: 5_000, Txns: 48, Ops: 3, Zipf: 0.8, Spacing: overlapping,
	}
	drained = submitted(shardedChurn, shardedChurn.Txns) + 12*T
	// Sites 2 and 5 share no shard, so every shard keeps a live replica.
	shardedChurn.Schedule = cluster.Schedule{
		cluster.CrashAt(submitted(shardedChurn, 17)+T, 2), cluster.RecoverAt(drained, 2),
		cluster.CrashAt(submitted(shardedChurn, 41)+T, 5), cluster.RecoverAt(drained+2*T, 5),
	}
	// Membership churn: spare site 7 joins, leaves and joins again, each
	// half-way between two transfers; its first event being a join, it
	// starts outside the membership.
	joinLeave := Scenario{
		Seed: 17, Family: Migration, Protocol: "termination+transient", Sites: 7, Shards: 6, RF: 3,
		Accounts: 18, Balance: 5_000, Txns: 48, Spacing: churn,
	}
	between := func(sc Scenario, i int) sim.Time { return submitted(sc, i) + sim.Time(sc.Spacing)/2 }
	joinLeave.Schedule = cluster.Schedule{
		cluster.JoinAt(between(joinLeave, 12), 7),
		cluster.LeaveAt(between(joinLeave, 24), 7),
		cluster.JoinAt(between(joinLeave, 36), 7),
	}
	// The same with a crash 1T into transfer 6 and its restart half-way to
	// the next; neither overlaps a migration.
	joinLeaveCrash := Scenario{
		Seed: 29, Family: Migration, Protocol: "termination+transient", Sites: 7, Shards: 6, RF: 3,
		Accounts: 18, Balance: 5_000, Txns: 36, Spacing: churn,
	}
	joinLeaveCrash.Schedule = cluster.Schedule{
		cluster.CrashAt(submitted(joinLeaveCrash, 6)+T, 3),
		cluster.RecoverAt(between(joinLeaveCrash, 6), 3),
		cluster.JoinAt(between(joinLeaveCrash, 9), 7),
		cluster.LeaveAt(between(joinLeaveCrash, 18), 7),
		cluster.JoinAt(between(joinLeaveCrash, 27), 7),
	}

	rows := []struct {
		name string
		sc   Scenario
		// blocks marks the 2PC row: Verify must report blocking there.
		blocks bool
		check  func(t *testing.T, r *Result)
	}{
		{
			name: "CleanWorkloadReplicates",
			sc: Scenario{Seed: 1, Family: HappyPath, Protocol: "termination", Sites: 4, Masters: "rr",
				Accounts: 8, Balance: 10_000, Txns: 60, Spacing: sequential},
			check: func(t *testing.T, r *Result) {
				if r.Stats.Committed == 0 {
					t.Fatalf("no commits in a clean run: %v", r.Stats)
				}
			},
		},
		{
			name: "PartitionedWorkloadUnderTermination",
			sc:   heldPartitions("termination+transient"),
			check: func(t *testing.T, r *Result) {
				checkHeld(t, r)
				if r.Stats.Committed == 0 || r.Stats.Aborted == 0 {
					t.Fatalf("want commits and aborts under partitions: %v", r.Stats)
				}
			},
		},
		{
			name:  "TransientWorkload",
			sc:    partitioned(transientRun, every(2, transientRun.Txns), transient),
			check: func(t *testing.T, r *Result) {},
		},
		{
			name:   "PartitionedWorkloadUnder2PC",
			sc:     heldPartitions("2pc"),
			blocks: true,
			check: func(t *testing.T, r *Result) {
				for _, res := range r.Results {
					if !res.Consistent() {
						t.Fatalf("2PC split txn %d: %+v", res.TID, res.Sites)
					}
				}
				for _, keys := range r.Unstable {
					if len(keys) > 0 {
						return
					}
				}
				t.Fatal("no site holds the locks of a blocked transaction")
			},
		},
		{
			name: "ConcurrentWorkload",
			// Two partitions, each covering one transfer's onset and
			// separated by more than a partition-lengthened lifetime.
			sc: partitioned(concurrent, []int{8, 56}, transient),
			check: func(t *testing.T, r *Result) {
				if r.Stats.Committed == 0 {
					t.Fatalf("no commits: %v", r.Stats)
				}
			},
		},
		{
			name: "ShardedWorkload",
			sc: Scenario{Seed: 5, Family: HappyPath, Protocol: "termination+transient", Sites: 9, Shards: 9, RF: 3,
				Accounts: 18, Balance: 5_000, Txns: 80, Spacing: overlapping},
			check: func(t *testing.T, r *Result) {
				if !crossShard(r) {
					t.Fatal("no cross-shard transfer in a random mix")
				}
				for id, snap := range r.Snapshots {
					for key := range snap {
						if strings.HasPrefix(key, "acct/") && !slices.Contains(r.Replicas(key), id) {
							t.Fatalf("site %d holds foreign account %s", id, key)
						}
					}
				}
			},
		},
		{
			name: "ShardedPartitionedWorkload",
			sc:   partitioned(shardedPartitioned, every(4, shardedPartitioned.Txns), transient),
			check: func(t *testing.T, r *Result) {
				if r.Stats.Committed == 0 {
					t.Fatalf("no commits: %v", r.Stats)
				}
			},
		},
		{
			// Concurrent debits of hot keys outrun a shallow balance:
			// escrow shortfalls vote no.
			name: "ZipfSkewedWorkloadShallow",
			sc: Scenario{Seed: 9, Family: AbortHeavy, Protocol: "termination+transient", Sites: 4, Masters: "rr",
				Accounts: 16, Balance: 100, Txns: 60, Zipf: 1.0, Spacing: overlapping},
			check: func(t *testing.T, r *Result) {
				if r.Stats.Aborted == 0 {
					t.Fatalf("hot-key skew on shallow balances aborted nothing: %v", r.Stats)
				}
			},
		},
		{
			// Transfers only add, so on deep balances every one commits.
			name: "ZipfSkewedWorkloadDeep",
			sc: Scenario{Seed: 9, Family: HappyPath, Protocol: "termination+transient", Sites: 4, Masters: "rr",
				Accounts: 16, Balance: 10_000, Txns: 60, Zipf: 1.0, Spacing: overlapping},
			check: func(t *testing.T, r *Result) {
				if r.Stats.Committed != r.Scenario.Txns || r.Stats.Aborted != 0 {
					t.Fatalf("want all %d transfers committed: %v", r.Scenario.Txns, r.Stats)
				}
			},
		},
		{
			name: "MultiOpShardedWorkload",
			sc: Scenario{Seed: 13, Family: HappyPath, Protocol: "termination+transient", Sites: 9, Shards: 9, RF: 3,
				Accounts: 27, Balance: 5_000, Txns: 60, Ops: 4, Spacing: overlapping},
			check: func(t *testing.T, r *Result) {
				if r.Stats.Committed == 0 || !crossShard(r) {
					t.Fatalf("want commits and a cross-shard transfer: %v", r.Stats)
				}
			},
		},
		{
			name: "ChurnWorkloadRecovers",
			sc:   recovers,
			check: func(t *testing.T, r *Result) {
				quietAt(t, r, submitted(recovers, recovers.Txns)+12*T, 2, 4, 5)
				if r.Stats.Recoveries == 0 || r.Stats.Committed == 0 {
					t.Fatalf("want recoveries and commits under churn: %v", r.Stats)
				}
			},
		},
		{
			name: "ShardedChurnWorkload",
			sc:   shardedChurn,
			check: func(t *testing.T, r *Result) {
				quietAt(t, r, submitted(shardedChurn, shardedChurn.Txns)+12*T, 2, 5)
				if r.Stats.Recoveries == 0 {
					t.Fatalf("no recoveries: %v", r.Stats)
				}
			},
		},
		{
			name: "JoinLeaveChurnWorkload",
			sc:   joinLeave,
			check: func(t *testing.T, r *Result) {
				checkChurn(t, r)
			},
		},
		{
			name: "JoinLeaveWithCrashChurn",
			sc:   joinLeaveCrash,
			check: func(t *testing.T, r *Result) {
				checkChurn(t, r)
				if r.Stats.Recoveries == 0 {
					t.Fatalf("no recoveries: %v", r.Stats)
				}
			},
		},
		{
			name:  "FacadeWorkload",
			sc:    partitioned(facade, every(4, facade.Txns), held(facade)),
			check: checkHeld,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, err := Run(row.sc)
			if err != nil {
				t.Fatal(err)
			}
			vs := Verify(r)
			if row.blocks {
				blocked := 0
				for _, v := range vs {
					if strings.Contains(v.Detail, "blocked at sites") {
						blocked++
					}
				}
				if blocked == 0 {
					t.Fatalf("2PC under held partitions blocked nothing: %d violations", len(vs))
				}
			} else {
				for _, v := range vs {
					t.Error(v)
				}
			}
			row.check(t, r)
		})
	}
}

// checkChurn checks a membership-churn row: three committed epoch bumps
// that moved shards and keys, transfers counted apart from them, and every
// membership change and restart off in-flight transfers.
func checkChurn(t *testing.T, r *Result) {
	t.Helper()
	for _, ev := range r.Scenario.Schedule {
		switch ev.Kind {
		case cluster.EvCrash:
		case cluster.EvRecover:
			quietAt(t, r, ev.At, ev.Site)
		default:
			quietAt(t, r, ev.At)
		}
	}
	st := r.Stats
	if st.Epoch < 3 || st.ShardsMoved == 0 || st.KeysMigrated == 0 {
		t.Fatalf("want three committed migrations that moved shards and keys: %v", st)
	}
	if len(r.Transfers) != r.Scenario.Txns || st.Committed == 0 {
		t.Fatalf("%d transfers of %d, stats %v", len(r.Transfers), r.Scenario.Txns, st)
	}
}
