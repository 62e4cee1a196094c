// Package workload drives multi-transaction banking workloads over
// replicated database engines through a commit protocol — the
// "distributed database system" context the paper's protocols exist to
// serve. It is built on internal/cluster: every run is one long-lived
// cluster timeline shared by all transfers, so blocked transactions keep
// their locks and visibly poison later ones (the §2 motivation), while
// resilient protocols keep all replicas identical. Concurrency > 1 keeps
// several transfers in flight at once — the throughput shape the
// benchmarks measure.
//
// With Shards > 0 the accounts are placed by a placement.Directory seeded
// with placement.Arithmetic: each `acct/i` row lives only at the
// ReplicationFactor replicas of its shard, every transfer runs only at the
// replica sets of the shards it touches (cross-shard transfers are the
// interesting multi-participant case), and replica convergence is checked
// per shard-replica-group. This is the horizontal-scaling shape the
// D-series benchmarks measure: commits no longer slow down as the cluster
// grows.
package workload

import (
	"fmt"
	"math"

	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// Config parameterizes a workload run.
type Config struct {
	Sites    int
	Protocol proto.Protocol
	// Accounts is the number of replicated rows ("acct/0".."acct/k-1").
	Accounts int
	// InitialBalance per account at every site.
	InitialBalance int64
	// Txns is the number of transfer transactions.
	Txns int
	// Concurrency is how many transfers are in flight at once; 0 or 1 is
	// the original sequential workload.
	Concurrency int
	// PartitionEvery injects a partition into every k-th transaction
	// (0 = never): a random split and onset per affected transaction.
	PartitionEvery int
	// Heal makes injected partitions transient (heal at onset + 3T).
	Heal bool
	// Shards switches the workload to sharded placement: accounts are
	// hash-placed across Shards shards, each replicated at
	// ReplicationFactor sites. 0 keeps full replication.
	Shards int
	// ReplicationFactor is the replicas per shard; 0 defaults to
	// min(3, Sites). Ignored unless Shards > 0.
	ReplicationFactor int
	// CrossShardEvery makes every k-th transfer span two shards — the
	// multi-participant case — while the rest stay shard-local, the mix
	// real sharded systems run. 0 defaults to every 4th; negative
	// disables locality and picks both accounts uniformly. Ignored
	// unless Shards > 0.
	CrossShardEvery int
	// Zipf skews the first account of every transfer toward hot keys:
	// account i is drawn with probability proportional to 1/(i+1)^Zipf.
	// 0 is uniform; ~1 is realistic web-workload skew. Hot keys contend
	// for locks, so skew raises LockFailures/Aborts — the stress the
	// recovery and cross-shard paths run under.
	Zipf float64
	// OpsPerTxn is how many accounts each transaction touches — a chain
	// of transfers through OpsPerTxn distinct accounts (2(k-1) ops).
	// 0 or 2 is the classic two-account transfer.
	OpsPerTxn int
	// CrashRecoverEvery crashes one random site shortly into every k-th
	// batch and recovers it — durably, through the WAL replay, in-doubt
	// resolution and catch-up of the recovery subsystem — at that batch's
	// end (0 = never). Combine with PartitionEvery only if divergence
	// windows are acceptable: a site recovering while its donors are
	// unreachable stays behind until a later heal.
	CrashRecoverEvery int
	// JoinLeaveEvery drives elastic-membership churn: at every k-th batch
	// boundary a member leaves (shards drained to replacement replicas,
	// epoch bumped through the commit protocol) and at the next churn
	// point it joins back (shards migrated onto it again). Requires
	// Shards > 0. 0 = static membership.
	JoinLeaveEvery int
	Seed           uint64
}

// Stats summarizes a workload run.
type Stats struct {
	Txns         int
	Commits      int
	Aborts       int
	Undecided    int // transactions left blocked at some site
	Inconsistent int
	// Replicated reports whether all sites ended with identical ledgers.
	Replicated bool
	// TotalMoved is the total amount transferred by committed
	// transactions (conservation check input).
	TotalMoved int64
	// LockFailures counts no votes recorded by the engines — transfers
	// refused because a row was still locked (or a guard failed).
	LockFailures int
	// CrossShard counts transactions whose participant set spanned more
	// than one shard's replica set (sharded placement only).
	CrossShard int
	// Recoveries counts durable site recoveries (CrashRecoverEvery);
	// the remaining fields aggregate their per-recovery stats.
	Recoveries     int
	ReplayedTxns   int
	ResolvedCommit int
	ResolvedAbort  int
	Unresolved     int
	CaughtUpKeys   int
	// Joins/Leaves count committed membership churn (JoinLeaveEvery);
	// FinalEpoch, ShardsMoved and KeysMigrated mirror the cluster's
	// migration counters.
	Joins        int
	Leaves       int
	FinalEpoch   uint64
	ShardsMoved  int
	KeysMigrated int
	// Conserved reports whether the committed total across all accounts
	// (each read at its shard's current primary) equals the initial total
	// — computed against the directory's final epoch, so it stays
	// meaningful under membership churn.
	Conserved bool
	// Metrics is the run's full metrics snapshot (latency histograms,
	// engine/WAL counters). Snapshots from repeated runs Merge, so a
	// bench harness can compute quantiles over many iterations.
	Metrics obs.Snapshot
}

// Setup builds the workload's placement directory (nil under full
// replication) and per-site engines seeded under it.
func (c Config) Setup() (*placement.Directory, map[proto.SiteID]*engine.Engine) {
	var dir *placement.Directory
	if c.Shards > 0 {
		rf := c.ReplicationFactor
		if rf == 0 {
			rf = min(3, c.Sites)
		}
		asg, err := placement.Arithmetic(c.Shards, rf, c.Sites)
		if err != nil {
			panic("workload: " + err.Error())
		}
		dir = placement.NewDirectory(asg)
	}
	return dir, EnginesFor(dir, c.Sites, c.Accounts, c.InitialBalance)
}

// EnginesFor builds per-site engines over a shard directory (nil = full
// replication), each seeded with the accounts it hosts at the directory's
// current epoch. A cluster opened with the same directory wires each
// engine's placement predicate (site.NewNode), so migrated shards land and
// departed shards go quiet without re-wiring.
func EnginesFor(dir *placement.Directory, sites, accounts int, balance int64) map[proto.SiteID]*engine.Engine {
	var asg *placement.Assignment
	if dir != nil {
		_, asg = dir.Current()
	}
	out := make(map[proto.SiteID]*engine.Engine, sites)
	for i := 1; i <= sites; i++ {
		id := proto.SiteID(i)
		e := engine.New(fmt.Sprintf("site-%d", i), &wal.MemStore{})
		for a := 0; a < accounts; a++ {
			if asg == nil || asg.Hosts(id, acct(a)) {
				e.PutInt(acct(a), balance)
			}
		}
		out[id] = e
	}
	return out
}

func acct(i int) string { return fmt.Sprintf("acct/%d", i) }

// SeedAccounts writes accounts `acct/0`.. at balance through the cluster
// itself — one OpPut transaction, waited for — the way an operator loads
// fixtures into daemons that start with empty engines. It returns an
// error unless the seed committed at every live participant: transfers
// against accounts that were never written vote no.
func SeedAccounts(c *cluster.Cluster, accounts int, balance int64) error {
	ops := make([]engine.Op, accounts)
	for a := range ops {
		ops[a] = engine.Op{Kind: engine.OpPut, Key: acct(a), Value: engine.EncodeInt(balance)}
	}
	r, err := c.Submit(cluster.Txn{Payload: engine.EncodeOps(ops)})
	if err == nil {
		err = c.Wait()
	}
	if err != nil {
		return fmt.Errorf("seeding accounts: %w", err)
	}
	if !r.Committed() || !r.Decided() {
		return fmt.Errorf("seeding accounts: seed txn %d did not commit (outcome %v, blocked at %v)",
			r.TID, r.Outcome(), r.Blocked())
	}
	return nil
}

// Run executes the workload and returns statistics plus the engines for
// further inspection.
func Run(cfg Config) (Stats, map[proto.SiteID]*engine.Engine) {
	if cfg.Sites < 2 || cfg.Accounts < 2 || cfg.Txns < 1 {
		panic("workload: need >=2 sites, >=2 accounts, >=1 txn")
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.JoinLeaveEvery > 0 && cfg.Shards <= 0 {
		panic("workload: JoinLeaveEvery requires Shards > 0")
	}
	rng := sim.NewRand(cfg.Seed + 0x90aD)
	dir, engines := cfg.Setup()
	// The epoch-0 assignment groups accounts by shard (every epoch hashes
	// alike); the directory owns the live replica sets.
	var home *placement.Assignment
	if dir != nil {
		home = dir.At(0)
	}
	byShard := accountsByShard(cfg, home)
	parts := make(map[proto.SiteID]cluster.Participant, len(engines))
	for id, e := range engines {
		parts[id] = e
	}

	c, err := cluster.Open(cluster.Config{
		Sites:        cfg.Sites,
		Protocol:     cfg.Protocol,
		Directory:    dir,
		Participants: parts,
		Backend: cluster.NewSimBackend(cluster.SimOptions{
			Latency: simnet.Uniform{Lo: sim.DefaultT / 3, Hi: sim.DefaultT},
			Seed:    rng.Uint64(),
		}),
	})
	if err != nil {
		panic("workload: " + err.Error())
	}
	defer c.Close()

	ops := cfg.OpsPerTxn
	if ops < 2 {
		ops = 2
	}
	if ops > cfg.Accounts {
		ops = cfg.Accounts
	}
	zipf := NewZipf(cfg.Accounts, cfg.Zipf)
	amounts := make(map[proto.TxnID]int64, cfg.Txns)
	var st Stats
	var churnOut proto.SiteID // the member the churn last removed (rejoins next time)
	batch := 0
	for txn := 1; txn <= cfg.Txns; {
		// One batch of Concurrency transfers shares the timeline slice;
		// at most one partition is injected per batch — transient or not
		// — so the network stays simply partitioned (two groups), as the
		// paper assumes.
		batch++
		injected, injectedOpen := false, false
		// Churn: fail one site shortly into the batch; it restarts — WAL
		// replay, in-doubt resolution, catch-up — at the batch boundary,
		// when everything in flight has decided.
		var crashed proto.SiteID
		if cfg.CrashRecoverEvery > 0 && batch%cfg.CrashRecoverEvery == 0 {
			crashed = proto.SiteID(1 + rng.Intn(cfg.Sites))
			if err := c.Inject(cluster.CrashAt(c.Now()+sim.Time(sim.DefaultT), crashed)); err != nil {
				panic("workload: " + err.Error())
			}
		}
		batchEnd := txn + cfg.Concurrency
		if batchEnd > cfg.Txns+1 {
			batchEnd = cfg.Txns + 1
		}
		for ; txn < batchEnd; txn++ {
			chain := pickAccounts(cfg, home, byShard, zipf, rng, txn, ops)
			amount := int64(1 + rng.Intn(50))
			payload := engine.EncodeOps(ChainOps(chain, amount))
			amount *= int64(len(chain) - 1) // total moved along the chain
			if cfg.PartitionEvery > 0 && txn%cfg.PartitionEvery == 0 && !injected {
				var split []proto.SiteID
				for s := 2; s <= cfg.Sites; s++ {
					if rng.Bool() {
						split = append(split, proto.SiteID(s))
					}
				}
				if len(split) == cfg.Sites-1 {
					split = split[:len(split)-1] // keep two groups, not an empty G1
				}
				if len(split) == 0 {
					split = []proto.SiteID{proto.SiteID(cfg.Sites)}
				}
				onset := c.Now() + sim.Time(rng.Int63n(int64(6*sim.DefaultT)))
				ev := cluster.PartitionAt(onset, split...)
				injected = true
				if cfg.Heal {
					ev.Heal = onset + 3*sim.Time(sim.DefaultT)
				} else {
					injectedOpen = true
				}
				if err := c.Inject(ev); err != nil {
					panic("workload: " + err.Error())
				}
			}
			// TIDs are cluster-assigned: epoch-bump metadata transactions
			// (JoinLeaveEvery) share the same sequence.
			r, err := c.Submit(cluster.Txn{Payload: payload, At: c.Now()})
			if err != nil {
				panic("workload: " + err.Error())
			}
			amounts[r.TID] = amount
		}
		if err := c.Wait(); err != nil {
			panic("workload: " + err.Error())
		}
		if injectedOpen {
			// The boundary falls between batches; the damage it did —
			// blocked transactions still holding locks — persists.
			if err := c.Inject(cluster.HealAt(c.Now())); err != nil {
				panic("workload: " + err.Error())
			}
		}
		if crashed != 0 {
			// Restart the failed site at the batch boundary and drive the
			// timeline over its recovery before the next batch submits.
			if err := c.Inject(cluster.RecoverAt(c.Now(), crashed)); err != nil {
				panic("workload: " + err.Error())
			}
			if err := c.Wait(); err != nil {
				panic("workload: " + err.Error())
			}
		}
		// Elastic-membership churn at the batch boundary: a member leaves
		// (shards drained through the migration path), and at the next
		// churn point it joins back (shards migrated onto it again).
		if cfg.JoinLeaveEvery > 0 && batch%cfg.JoinLeaveEvery == 0 {
			if churnOut != 0 {
				if rep, err := c.Join(churnOut); err == nil && rep.Committed {
					st.Joins++
					churnOut = 0
				}
			} else {
				_, asg := dir.Current()
				mem := asg.Members()
				if len(mem) > asg.ReplicationFactor() {
					site := mem[len(mem)-1]
					if rep, err := c.Leave(site); err == nil && rep.Committed {
						st.Leaves++
						churnOut = site
					}
				}
			}
		}
	}

	for _, r := range c.Results() {
		if _, isTransfer := amounts[r.TID]; !isTransfer {
			continue // an epoch-bump metadata transaction, counted below
		}
		st.Txns++
		if !r.Consistent() {
			st.Inconsistent++
		}
		if home != nil && len(r.Participants) > home.ReplicationFactor() {
			st.CrossShard++
		}
		switch {
		case !r.Decided():
			st.Undecided++
		case r.Outcome() == proto.Commit:
			st.Commits++
			st.TotalMoved += amounts[r.TID]
		default:
			st.Aborts++
		}
	}
	for _, e := range engines {
		_, voteNo, _, _ := e.Stats()
		st.LockFailures += int(voteNo)
	}
	for _, rep := range c.Recoveries() {
		st.Recoveries++
		st.ReplayedTxns += rep.Stats.Replayed
		st.ResolvedCommit += rep.Stats.ResolvedCommit
		st.ResolvedAbort += rep.Stats.ResolvedAbort
		st.Unresolved += rep.Stats.Unresolved
		st.CaughtUpKeys += rep.Stats.CaughtUpKeys
	}
	cst := c.Stats()
	st.FinalEpoch = cst.Epoch
	st.ShardsMoved = cst.ShardsMoved
	st.KeysMigrated = cst.KeysMigrated
	st.Replicated = replicated(engines, cfg, dir)
	st.Conserved = conserved(engines, cfg, dir)
	st.Metrics = c.Metrics()
	return st, engines
}

// accountsByShard groups the account indices by shard (nil under full
// replication).
func accountsByShard(cfg Config, asg *placement.Assignment) [][]int {
	if asg == nil {
		return nil
	}
	out := make([][]int, asg.Shards())
	for a := 0; a < cfg.Accounts; a++ {
		s := asg.ShardOf(acct(a))
		out[s] = append(out[s], a)
	}
	return out
}

// Zipf draws indices 0..n-1 with probability proportional to 1/(i+1)^s,
// by inverse-CDF over precomputed cumulative weights — deterministic
// under sim.Rand, unlike math/rand's sampler. s = 0 degenerates to the
// uniform distribution.
type Zipf struct{ cum []float64 }

// NewZipf builds a sampler over [0, n) with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Draw samples one index.
func (z *Zipf) Draw(rng *sim.Rand) int {
	total := z.cum[len(z.cum)-1]
	target := rng.Float64() * total
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DrawDistinct samples k distinct indices (k clamped to the domain size),
// probing forward on collisions so the skew is preserved for each fresh
// draw.
func (z *Zipf) DrawDistinct(rng *sim.Rand, k int) []int {
	n := len(z.cum)
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	used := make(map[int]bool, k)
	for len(out) < k {
		x := z.Draw(rng)
		for used[x] {
			x = (x + 1) % n
		}
		used[x] = true
		out = append(out, x)
	}
	return out
}

// pickAccounts chooses the k distinct accounts a transaction touches. The
// first account is the (possibly zipf-skewed) hot pick; under sharded
// placement the rest stay in its shard except on every CrossShardEvery-th
// transfer, which deliberately includes another shard's account. Pools too
// small for k distinct accounts fall back to the whole keyspace.
func pickAccounts(cfg Config, asg *placement.Assignment, byShard [][]int, z *Zipf, rng *sim.Rand, txn, k int) []int {
	from := z.Draw(rng)
	out := []int{from}
	used := map[int]bool{from: true}
	add := func(a int) bool {
		if used[a] {
			return false
		}
		used[a] = true
		out = append(out, a)
		return true
	}
	var pool []int
	if asg != nil && cfg.CrossShardEvery >= 0 {
		pool = byShard[asg.ShardOf(acct(from))]
		crossEvery := cfg.CrossShardEvery
		if crossEvery == 0 {
			crossEvery = 4
		}
		if txn%crossEvery == 0 && len(out) < k {
			// A genuinely cross-shard pick: one account from outside
			// from's shard, uniform over the foreign keyspace.
			others := cfg.Accounts - len(pool)
			if others > 0 {
				n := rng.Intn(others)
				for a := 0; a < cfg.Accounts; a++ {
					if asg.ShardOf(acct(a)) == asg.ShardOf(acct(from)) {
						continue
					}
					if n == 0 {
						add(a)
						break
					}
					n--
				}
			}
		}
	}
	// Fill from the shard-local pool first, then the whole keyspace.
	fill := func(candidates []int) {
		if len(candidates) == 0 || len(out) >= k {
			return
		}
		start := rng.Intn(len(candidates))
		for i := 0; i < len(candidates) && len(out) < k; i++ {
			add(candidates[(start+i)%len(candidates)])
		}
	}
	fill(pool)
	if len(out) < k {
		all := make([]int, cfg.Accounts)
		for a := range all {
			all[a] = a
		}
		fill(all)
	}
	return out
}

// ChainOps encodes a transaction moving amount along the chain of
// `acct/<i>` accounts: each consecutive pair is one transfer hop.
func ChainOps(chain []int, amount int64) []engine.Op {
	ops := make([]engine.Op, 0, 2*(len(chain)-1))
	for i := 0; i+1 < len(chain); i++ {
		ops = append(ops,
			engine.Op{Kind: engine.OpAdd, Key: acct(chain[i]), Delta: -amount},
			engine.Op{Kind: engine.OpAdd, Key: acct(chain[i+1]), Delta: +amount},
		)
	}
	return ops
}

// replicated reports whether the replicas of every account agree on its
// balance — every pair of engines under full replication, each account's
// shard-replica-group (at the directory's final epoch) under sharded
// placement. Only meaningful when no transaction is left undecided
// anywhere.
func replicated(engines map[proto.SiteID]*engine.Engine, cfg Config, dir *placement.Directory) bool {
	if dir == nil {
		var ref *engine.Engine
		for _, e := range engines {
			ref = e
			break
		}
		for _, e := range engines {
			for a := 0; a < cfg.Accounts; a++ {
				if e.GetInt(acct(a)) != ref.GetInt(acct(a)) {
					return false
				}
			}
		}
		return true
	}
	_, asg := dir.Current()
	for a := 0; a < cfg.Accounts; a++ {
		reps := asg.Replicas(asg.ShardOf(acct(a)))
		ref := engines[reps[0]].GetInt(acct(a))
		for _, id := range reps[1:] {
			if engines[id].GetInt(acct(a)) != ref {
				return false
			}
		}
	}
	return true
}

// conserved checks conservation against a directory's final epoch.
func conserved(engines map[proto.SiteID]*engine.Engine, cfg Config, dir *placement.Directory) bool {
	var total int64
	if dir == nil {
		var e *engine.Engine
		for _, x := range engines {
			e = x
			break
		}
		for a := 0; a < cfg.Accounts; a++ {
			total += e.GetInt(acct(a))
		}
	} else {
		_, asg := dir.Current()
		for a := 0; a < cfg.Accounts; a++ {
			total += engines[asg.Primary(asg.ShardOf(acct(a)))].GetInt(acct(a))
		}
	}
	return total == int64(cfg.Accounts)*cfg.InitialBalance
}
