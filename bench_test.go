// Benchmarks of the simulator: recovery churn (E16), simulated protocol
// rounds and workloads, and FSA exploration (the P-series). The WAL,
// engine and lock table are timed on a daemon's own store by the e2e
// benchmark's micro stage (bench/e2e). The paper's artifacts are tested,
// not timed: experiments.TestE1–TestE15 and TestAllGolden regenerate
// them. Run with:
//
//	go test -bench=. -benchmem
package termproto_test

import (
	"fmt"
	"testing"

	"termproto"
	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/fsa"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/protocol/fourpc"
	"termproto/internal/protocol/quorum"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/threepcrules"
	"termproto/internal/protocol/twopc"
	"termproto/internal/protocol/twopcext"
	"termproto/internal/workload"
)

// BenchmarkE16_RecoveryChurn measures the durability subsystem under
// crash/recover churn: a WAL-backed banking workload in which one site
// fails during every other batch and durably restarts — log replay,
// in-doubt resolution through the termination protocol's inquiry round,
// and anti-entropy catch-up — at the batch boundary. Reported metrics are
// committed transactions per wall-clock second under the churn and the
// mean per-recovery resolution latency in milliseconds; every run must
// end fully replicated with no transaction unresolved.
func BenchmarkE16_RecoveryChurn(b *testing.B) {
	var committed, txns, recoveries int
	var recoveryTime float64
	for i := 0; i < b.N; i++ {
		st, _ := workload.Run(workload.Config{
			Sites: 5, Protocol: termproto.TerminationTransient(),
			Accounts: 16, InitialBalance: 1 << 30, Txns: 64,
			Concurrency: 8, CrashRecoverEvery: 2,
			Zipf: 0.8, OpsPerTxn: 3, Seed: uint64(i + 1),
		})
		if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated || st.Unresolved != 0 {
			b.Fatalf("churn workload failed: %+v", st)
		}
		committed += st.Commits
		txns += st.Txns
		recoveries += st.Recoveries
		recoveryTime += st.RecoveryTime.Seconds()
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed-txns/s")
	b.ReportMetric(float64(committed)/float64(txns), "committed-frac")
	b.ReportMetric(float64(recoveries)/float64(b.N), "recoveries/run")
	if recoveries > 0 {
		b.ReportMetric(recoveryTime*1000/float64(recoveries), "recovery-ms")
	}
}

// --- P-series: protocol rounds, FSA exploration and workloads ---

// BenchmarkP1_ProtocolRound measures one full failure-free termination-
// protocol transaction (4 sites) through the simulator.
func BenchmarkP1_ProtocolRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, _ := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{}}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			b.Fatal("inconsistent")
		}
	}
}

// BenchmarkP2_PartitionedRound measures a partitioned termination-protocol
// transaction including the 5T window and probe traffic.
func BenchmarkP2_PartitionedRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 5, Protocol: core.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(2500, 4, 5)},
		}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			b.Fatal("inconsistent")
		}
	}
}

// BenchmarkP7_FSAReachability measures the exhaustive global-state
// exploration of 3PC with three sites.
func BenchmarkP7_FSAReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := fsa.Analyze(fsa.ThreePC(false), 3)
		if !a.SatisfiesLemmas() {
			b.Fatal("lemma verdict changed")
		}
	}
}

// BenchmarkP8_QuorumRound measures the quorum baseline's partitioned
// termination (polling rounds included) for comparison with P2.
func BenchmarkP8_QuorumRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 5, Protocol: quorum.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(2500, 4, 5)},
		}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			b.Fatal("inconsistent")
		}
	}
}

// BenchmarkP9_PartitionedWorkload measures a 30-transaction banking
// workload with a partition injected into every third transaction.
func BenchmarkP9_PartitionedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, _ := workload.Run(workload.Config{
			Sites: 4, Protocol: termproto.TerminationTransient(),
			Accounts: 4, InitialBalance: 10_000, Txns: 30,
			PartitionEvery: 3, Seed: uint64(i + 1),
		})
		if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
			b.Fatalf("workload failed: %+v", st)
		}
	}
}

// --- C-series: cluster throughput ---

// benchProtocols is every commit protocol in the repository, in paper
// order.
var benchProtocols = []struct {
	name string
	p    proto.Protocol
}{
	{"2pc", twopc.Protocol{}},
	{"2pc-ext", twopcext.Protocol{}},
	{"3pc", threepc.Protocol{}},
	{"3pc-rules", threepcrules.Protocol{}},
	{"cooperative", cooperative.Protocol{}},
	{"quorum", quorum.Protocol{}},
	{"termination", core.Protocol{TransientFix: true}},
	{"4pc-termination", fourpc.Protocol{TransientFix: true}},
}

// BenchmarkC1_ClusterThroughput measures committed transactions per
// wall-clock second for every protocol: 24 concurrent transactions
// batched onto one sim timeline while a transient partition separates two
// of five sites mid-traffic. Blocking protocols commit less under the
// same offered load — the paper's availability argument as a benchmark —
// and the unsafe ones (extended 2PC, rule-augmented 3PC, cooperative
// termination: the Section 3 counterexamples) show a nonzero
// inconsistent-frac instead of failing the benchmark.
func BenchmarkC1_ClusterThroughput(b *testing.B) {
	for _, pc := range benchProtocols {
		b.Run(pc.name, func(b *testing.B) {
			const txns = 24
			var committed, blocked, inconsistent int
			for i := 0; i < b.N; i++ {
				c, err := termproto.Open(termproto.ClusterConfig{
					Sites:    5,
					Protocol: pc.p,
					Schedule: termproto.Schedule{
						termproto.TransientPartitionAt(2500, 8500, 4, 5),
					},
					Backend: termproto.NewSimBackend(termproto.SimOptions{
						Seed: uint64(i + 1),
					}),
				})
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]termproto.Txn, txns)
				for j := range batch {
					batch[j].At = termproto.Time(j) * 500
				}
				if _, err := c.SubmitBatch(batch); err != nil {
					b.Fatal(err)
				}
				if err := c.Wait(); err != nil {
					b.Fatal(err)
				}
				st := c.Stats()
				committed += st.Committed
				blocked += st.Blocked
				inconsistent += st.Inconsistent
				c.Close()
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed-txns/s")
			b.ReportMetric(float64(committed)/float64(b.N*txns), "committed-frac")
			b.ReportMetric(float64(blocked)/float64(b.N*txns), "blocked-frac")
			b.ReportMetric(float64(inconsistent)/float64(b.N*txns), "inconsistent-frac")
		})
	}
}

// --- D-series: sharded placement / horizontal scaling ---

// shardedWorkload is the D-series configuration: shards scale with the
// cluster, the replication factor stays fixed, the account keyspace and
// offered load grow with the sites. Transfers run only at their
// participant sites, so per-transaction cost is O(RF), not O(sites).
func shardedWorkload(sites, rf int, seed uint64) workload.Config {
	return workload.Config{
		Sites:    sites,
		Protocol: termproto.TerminationTransient(),
		Shards:   sites, ReplicationFactor: rf,
		Accounts: 3 * sites, InitialBalance: 1 << 30,
		Txns: 24 * sites, Concurrency: 48,
		Seed: seed,
	}
}

// BenchmarkD1_ShardedScaling measures committed transactions per
// wall-clock second as the cluster grows at fixed replication factor —
// the horizontal-scaling headline. Offered load and keyspace scale with
// the sites while each transfer still involves only its participants, so
// the committed-txns/s curve rises with cluster size (under full
// replication it falls: every commit touches every site).
func BenchmarkD1_ShardedScaling(b *testing.B) {
	const rf = 3
	for _, sites := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("n=%d", sites), func(b *testing.B) {
			var committed, crossShard, txns int
			for i := 0; i < b.N; i++ {
				st, _ := workload.Run(shardedWorkload(sites, rf, uint64(i+1)))
				if st.Inconsistent != 0 || st.Undecided != 0 || !st.Replicated {
					b.Fatalf("sharded workload failed: %+v", st)
				}
				committed += st.Commits
				crossShard += st.CrossShard
				txns += st.Txns
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed-txns/s")
			b.ReportMetric(float64(committed)/float64(txns), "committed-frac")
			b.ReportMetric(float64(crossShard)/float64(txns), "cross-shard-frac")
		})
	}
}

// BenchmarkD2_ShardedVsFull contrasts the two placement models on the
// same 12-site cluster and offered load: full replication runs every
// transfer at all 12 sites, sharded placement at ~3.
func BenchmarkD2_ShardedVsFull(b *testing.B) {
	const sites = 12
	base := shardedWorkload(sites, 3, 1)
	for _, mode := range []struct {
		name    string
		sharded bool
	}{{"full", false}, {"sharded", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var committed int
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Seed = uint64(i + 1)
				if !mode.sharded {
					cfg.Shards, cfg.ReplicationFactor = 0, 0
				}
				st, _ := workload.Run(cfg)
				if st.Inconsistent != 0 || st.Undecided != 0 {
					b.Fatalf("workload failed: %+v", st)
				}
				committed += st.Commits
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed-txns/s")
		})
	}
}

// BenchmarkC2_ClusterEngineThroughput measures the full database path —
// locks, WAL, row apply — under concurrent batched submission through
// the termination protocol, reusing the engine fixtures across
// iterations (one long-lived cluster, batches of 16).
func BenchmarkC2_ClusterEngineThroughput(b *testing.B) {
	const sites, accounts, batchSize = 4, 64, 16
	engines := make(map[termproto.SiteID]termproto.Participant, sites)
	for i := 1; i <= sites; i++ {
		e := termproto.NewEngine(fmt.Sprintf("bench-%d", i), &termproto.MemStore{})
		for a := 0; a < accounts; a++ {
			e.PutInt(fmt.Sprintf("acct/%d", a), 1<<40)
		}
		engines[termproto.SiteID(i)] = e
	}
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:        sites,
		Protocol:     termproto.TerminationTransient(),
		Participants: engines,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	var committed int
	tid := proto.TxnID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]termproto.Txn, batchSize)
		for j := range batch {
			tid++
			from := int(tid) % accounts
			to := (from + 7) % accounts
			batch[j] = termproto.Txn{
				ID: tid,
				Payload: termproto.EncodeOps([]termproto.Op{
					{Kind: termproto.OpAdd, Key: fmt.Sprintf("acct/%d", from), Delta: -1},
					{Kind: termproto.OpAdd, Key: fmt.Sprintf("acct/%d", to), Delta: 1},
				}),
				At: c.Now(),
			}
		}
		if _, err := c.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	committed = st.Committed
	if st.Inconsistent != 0 || st.Blocked != 0 {
		b.Fatalf("engine throughput run failed: %v", st)
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed-txns/s")
}
