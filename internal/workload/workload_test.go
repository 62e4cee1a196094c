package workload

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
)

func TestCleanWorkloadReplicates(t *testing.T) {
	cfg := Config{
		Sites: 4, Protocol: core.Protocol{},
		Accounts: 8, InitialBalance: 10_000, Txns: 60, Seed: 1,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 {
		t.Fatalf("clean workload: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatal("no commits in a clean workload")
	}
	if !st.Replicated {
		t.Fatal("replicas diverged without failures")
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// The headline workload: partitions injected into every third transaction.
// The termination protocol keeps every replica identical and every
// transaction decided; money is conserved everywhere.
func TestPartitionedWorkloadUnderTermination(t *testing.T) {
	cfg := Config{
		Sites: 5, Protocol: core.Protocol{TransientFix: true},
		Accounts: 6, InitialBalance: 5_000, Txns: 90,
		PartitionEvery: 3, Seed: 42,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 {
		t.Fatalf("termination protocol produced %d inconsistent txns", st.Inconsistent)
	}
	if st.Undecided != 0 {
		t.Fatalf("termination protocol left %d txns undecided", st.Undecided)
	}
	if !st.Replicated {
		t.Fatal("replicas diverged under the termination protocol")
	}
	if st.Commits == 0 || st.Aborts == 0 {
		t.Fatalf("expected a mix of commits and aborts under partitions: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// Transient partitions with the §6 fix behave the same.
func TestTransientWorkload(t *testing.T) {
	cfg := Config{
		Sites: 4, Protocol: core.Protocol{TransientFix: true},
		Accounts: 4, InitialBalance: 2_000, Txns: 60,
		PartitionEvery: 2, Heal: true, Seed: 7,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("transient workload: %+v", st)
	}
}

// The contrast: 2PC under the same partitioned workload strands
// transactions, and the held locks poison later transfers.
func TestPartitionedWorkloadUnder2PC(t *testing.T) {
	cfg := Config{
		Sites: 5, Protocol: twopc.Protocol{},
		Accounts: 6, InitialBalance: 5_000, Txns: 90,
		PartitionEvery: 3, Seed: 42,
	}
	st, engines := Run(cfg)
	if st.Undecided == 0 {
		t.Fatal("2PC under partitions should strand transactions")
	}
	// Some engine must still hold in-doubt transactions (locks).
	anyInDoubt := false
	for _, e := range engines {
		if len(e.InDoubt()) > 0 {
			anyInDoubt = true
		}
	}
	if !anyInDoubt {
		t.Fatal("no in-doubt transactions despite stranded 2PC runs")
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"sites":    {Sites: 1, Protocol: core.Protocol{}, Accounts: 2, Txns: 1},
		"accounts": {Sites: 2, Protocol: core.Protocol{}, Accounts: 1, Txns: 1},
		"txns":     {Sites: 2, Protocol: core.Protocol{}, Accounts: 2, Txns: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			Run(cfg)
		}()
	}
}

// The concurrent workload: several transfers in flight on the timeline at
// once, partitions included. Lock conflicts surface as engine no-votes,
// never as inconsistency.
func TestConcurrentWorkload(t *testing.T) {
	cfg := Config{
		Sites: 4, Protocol: core.Protocol{TransientFix: true},
		Accounts: 12, InitialBalance: 10_000, Txns: 60,
		Concurrency: 8, PartitionEvery: 10, Heal: true, Seed: 11,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 {
		t.Fatalf("concurrent workload: %+v", st)
	}
	if !st.Replicated {
		t.Fatal("replicas diverged under the concurrent workload")
	}
	if st.Commits == 0 {
		t.Fatalf("no commits: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// The sharded workload: accounts hash-placed across shards with a small
// replication factor, transfers running only at their participants.
// Replica groups converge, money is conserved, and cross-shard transfers
// appear in the mix.
func TestShardedWorkload(t *testing.T) {
	cfg := Config{
		Sites: 9, Protocol: core.Protocol{TransientFix: true},
		Shards: 9, ReplicationFactor: 3,
		Accounts: 18, InitialBalance: 5_000, Txns: 80,
		Concurrency: 8, Seed: 5,
	}
	st, engines := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 {
		t.Fatalf("sharded workload: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no commits: %+v", st)
	}
	if st.CrossShard == 0 {
		t.Fatalf("no cross-shard transfers in a random mix: %+v", st)
	}
	if !st.Replicated {
		t.Fatal("shard replica groups diverged")
	}
	if !st.Conserved {
		t.Fatal("money not conserved under sharded placement")
	}
	// Placement holds on the engines themselves: no site carries an
	// account it does not replicate.
	asg, err := placement.Arithmetic(cfg.Shards, cfg.ReplicationFactor, cfg.Sites)
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range engines {
		for a := 0; a < cfg.Accounts; a++ {
			key := acct(a)
			if _, ok := e.Get(key); ok && !asg.Hosts(id, key) {
				t.Fatalf("site %d holds foreign account %s", id, key)
			}
		}
	}
}

// Sharded placement under partitions: the termination protocol still
// decides everything and per-group replication holds.
func TestShardedPartitionedWorkload(t *testing.T) {
	cfg := Config{
		Sites: 8, Protocol: core.Protocol{TransientFix: true},
		Shards: 8, ReplicationFactor: 3,
		Accounts: 16, InitialBalance: 5_000, Txns: 60,
		PartitionEvery: 4, Heal: true, Seed: 23,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("sharded partitioned workload: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no commits: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// Zipfian skew draws hot keys far more often than cold ones, and the
// skewed workload still terminates consistently with conserved money —
// contention surfaces only as lock-failure aborts.
func TestZipfSkewedWorkload(t *testing.T) {
	z := NewZipf(100, 1.0)
	rng := sim.NewRand(1)
	hot, cold := 0, 0
	for i := 0; i < 10_000; i++ {
		switch d := z.Draw(rng); {
		case d == 0:
			hot++
		case d >= 90:
			cold++
		}
	}
	if hot < 5*cold {
		t.Fatalf("zipf(1.0) not skewed: hot=%d cold(10 keys)=%d", hot, cold)
	}

	cfg := Config{
		Sites: 4, Protocol: core.Protocol{TransientFix: true},
		Accounts: 16, InitialBalance: 10_000, Txns: 60,
		Concurrency: 6, Zipf: 1.0, Seed: 9,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("zipf workload: %+v", st)
	}
	if st.LockFailures == 0 {
		t.Fatalf("hot-key skew with concurrency produced no lock contention: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// Multi-op transactions chain through OpsPerTxn distinct accounts; under
// sharded placement the chains still converge and conserve, and the wider
// key footprint drives more cross-shard participation.
func TestMultiOpShardedWorkload(t *testing.T) {
	cfg := Config{
		Sites: 9, Protocol: core.Protocol{TransientFix: true},
		Shards: 9, ReplicationFactor: 3,
		Accounts: 27, InitialBalance: 5_000, Txns: 60,
		Concurrency: 6, OpsPerTxn: 4, Seed: 13,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("multi-op sharded workload: %+v", st)
	}
	if st.Commits == 0 || st.CrossShard == 0 {
		t.Fatalf("expected commits and cross-shard txns: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// Crash/recover churn with durable recovery: sites fail mid-batch and
// restart at batch boundaries, resolving their in-doubt transactions and
// catching up — the final state is fully replicated and conserved.
func TestChurnWorkloadRecovers(t *testing.T) {
	cfg := Config{
		Sites: 5, Protocol: core.Protocol{TransientFix: true},
		Accounts: 10, InitialBalance: 10_000, Txns: 48,
		Concurrency: 8, CrashRecoverEvery: 2, Seed: 7,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("churn workload: %+v", st)
	}
	if st.Recoveries == 0 {
		t.Fatal("churn ran no recoveries")
	}
	if st.Unresolved != 0 {
		t.Fatalf("in-doubt transactions left unresolved with all peers reachable: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no commits under churn: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved under churn")
	}
}

// Sharded churn: the recovering site reconciles per hosted shard from the
// surviving replicas.
func TestShardedChurnWorkload(t *testing.T) {
	cfg := Config{
		Sites: 6, Protocol: core.Protocol{TransientFix: true},
		Shards: 6, ReplicationFactor: 3,
		Accounts: 18, InitialBalance: 5_000, Txns: 48,
		Concurrency: 8, CrashRecoverEvery: 3, Zipf: 0.8, OpsPerTxn: 3, Seed: 21,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("sharded churn workload: %+v", st)
	}
	if st.Recoveries == 0 {
		t.Fatal("no recoveries")
	}
	if st.Unresolved != 0 {
		t.Fatalf("in-doubt transactions left unresolved with all peers reachable: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved")
	}
}

// Elastic-membership churn: members leave (shards drained through the
// migration path) and rejoin (shards migrated back) at batch boundaries
// while transfers flow. Every transfer still terminates consistently,
// replica groups converge at the final epoch, and money is conserved.
func TestJoinLeaveChurnWorkload(t *testing.T) {
	cfg := Config{
		Sites: 6, Protocol: core.Protocol{TransientFix: true},
		Shards: 6, ReplicationFactor: 3,
		Accounts: 18, InitialBalance: 5_000, Txns: 48,
		Concurrency: 8, JoinLeaveEvery: 2, Seed: 17,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("churn workload: %+v", st)
	}
	if st.Leaves == 0 || st.Joins == 0 {
		t.Fatalf("no membership churn ran: %+v", st)
	}
	if st.FinalEpoch == 0 || st.ShardsMoved == 0 || st.KeysMigrated == 0 {
		t.Fatalf("migrations moved nothing: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatalf("no commits under churn: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved across membership churn")
	}
	if st.Txns != cfg.Txns {
		t.Fatalf("epoch-bump txns leaked into the transfer count: %d vs %d", st.Txns, cfg.Txns)
	}
}

// Membership churn combined with crash/recover churn: the recovery
// subsystem catches up against the directory's current epoch.
func TestJoinLeaveWithCrashChurn(t *testing.T) {
	cfg := Config{
		Sites: 6, Protocol: core.Protocol{TransientFix: true},
		Shards: 6, ReplicationFactor: 3,
		Accounts: 18, InitialBalance: 5_000, Txns: 36,
		Concurrency: 6, JoinLeaveEvery: 3, CrashRecoverEvery: 2, Seed: 29,
	}
	st, _ := Run(cfg)
	if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
		t.Fatalf("mixed churn workload: %+v", st)
	}
	if st.Recoveries == 0 {
		t.Fatal("no recoveries ran")
	}
	if st.Leaves == 0 {
		t.Fatalf("no membership churn ran: %+v", st)
	}
	if !st.Conserved {
		t.Fatal("money not conserved under mixed churn")
	}
}

// TotalMoved sums exactly the committed transfers.
func TestTotalMoved(t *testing.T) {
	cfg := Config{
		Sites: 3, Protocol: core.Protocol{}, Accounts: 4,
		InitialBalance: 1_000, Txns: 25, Seed: 3,
	}
	st, _ := Run(cfg)
	if st.Commits == 0 || st.TotalMoved <= 0 {
		t.Fatalf("TotalMoved not populated: %+v", st)
	}
	// Every transfer moves 1..50, so the committed total is bounded.
	if st.TotalMoved > int64(st.Commits)*50 || st.TotalMoved < int64(st.Commits) {
		t.Fatalf("TotalMoved %d outside [%d, %d]", st.TotalMoved, st.Commits, st.Commits*50)
	}
}

// SeedAccounts reports a seed the cluster did not commit instead of
// letting traffic start against accounts that were never written: a
// partition that cuts sites off before the seed decides aborts it.
func TestSeedAccountsReportsUncommittedSeed(t *testing.T) {
	seed := func(sched cluster.Schedule) (map[proto.SiteID]*engine.Engine, error) {
		engs := EnginesFor(nil, 4, 0, 0) // empty engines, as daemons start
		parts := make(map[proto.SiteID]cluster.Participant, len(engs))
		for id, e := range engs {
			parts[id] = e
		}
		c, err := cluster.Open(cluster.Config{
			Sites: 4, Protocol: core.Protocol{TransientFix: true},
			Participants: parts, Schedule: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return engs, SeedAccounts(c, 6, 100)
	}
	if engs, err := seed(nil); err != nil {
		t.Fatalf("fault-free seed: %v", err)
	} else if got := engs[4].GetInt(acct(5)); got != 100 {
		t.Fatalf("seeded balance %d, want 100", got)
	}
	engs, err := seed(cluster.Schedule{cluster.PartitionAt(sim.Time(sim.DefaultT/2), 3, 4)})
	if err == nil {
		t.Fatal("a seed cut off by a partition was reported as seeded")
	}
	t.Log(err)
	if _, ok := engs[1].Get(acct(0)); ok {
		t.Fatalf("aborted seed left %s at site 1 (err %v)", acct(0), err)
	}
}
