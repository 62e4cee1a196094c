package chaos

import (
	"fmt"
	"math"

	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// The pieces of simulated banking traffic: engines seeded with `acct/i`
// accounts, the same accounts written through a running cluster, a
// deterministic zipfian key sampler, and the transfer chain a
// transaction body encodes.

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

func accountKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = acct(i)
	}
	return out
}

// seedAccounts writes accounts `acct/0`.. at balance through the cluster
// itself — one OpPut transaction, waited for — the way an operator loads
// fixtures into daemons that start with empty engines. It returns an
// error unless the seed committed at every live participant: transfers
// against accounts that were never written vote no.
func seedAccounts(c *cluster.Cluster, accounts int, balance int64) error {
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

// submitTraffic submits the scenario's transactions, each At base +
// i*Spacing. It returns their results in submission order. A protocol-only
// scenario's transactions carry no payload; otherwise each is a chain
// of transfers over Ops accounts drawn by the zipfian sampler.
func submitTraffic(c *cluster.Cluster, sc Scenario, base sim.Time) ([]*cluster.TxnResult, error) {
	rng := sim.NewRand(sc.Seed + 0xc4a05)
	var z *zipf
	ops := min(max(sc.Ops, 2), sc.Accounts)
	if sc.Accounts > 0 {
		z = newZipf(sc.Accounts, sc.Zipf)
	}
	var out []*cluster.TxnResult
	for i := 1; i <= sc.Txns; i++ {
		var payload []byte
		if z != nil {
			chain := z.drawDistinct(rng, ops)
			amount := int64(1 + rng.Intn(40))
			if sc.BigEvery > 0 && i%sc.BigEvery == 0 {
				// Exceeds the whole money supply: the balance guard at the
				// debited account votes no, aborting unilaterally.
				amount = sc.Balance*int64(sc.Accounts) + 1
			}
			payload = engine.EncodeOps(chainOps(chain, amount))
		}
		res, err := c.Submit(cluster.Txn{
			Payload: payload,
			At:      base + sim.Time(int64(sc.Spacing)*int64(i)),
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: submit txn %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// zipf draws indices 0..n-1 with probability proportional to 1/(i+1)^s,
// by inverse-CDF over precomputed cumulative weights — deterministic
// under sim.Rand, unlike math/rand's sampler. s = 0 degenerates to the
// uniform distribution.
type zipf struct{ cum []float64 }

// newZipf builds a sampler over [0, n) with exponent s.
func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipf{cum: cum}
}

// draw samples one index.
func (z *zipf) draw(rng *sim.Rand) int {
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

// drawDistinct samples k distinct indices (k clamped to the domain size),
// probing forward on collisions so the skew is preserved for each fresh
// draw.
func (z *zipf) drawDistinct(rng *sim.Rand, k int) []int {
	n := len(z.cum)
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	used := make(map[int]bool, k)
	for len(out) < k {
		x := z.draw(rng)
		for used[x] {
			x = (x + 1) % n
		}
		used[x] = true
		out = append(out, x)
	}
	return out
}

// chainOps encodes a transaction moving amount along the chain of
// `acct/<i>` accounts: each consecutive pair is one transfer hop.
func chainOps(chain []int, amount int64) []engine.Op {
	ops := make([]engine.Op, 0, 2*(len(chain)-1))
	for i := 0; i+1 < len(chain); i++ {
		ops = append(ops,
			engine.Op{Kind: engine.OpAdd, Key: acct(chain[i]), Delta: -amount},
			engine.Op{Kind: engine.OpAdd, Key: acct(chain[i+1]), Delta: +amount},
		)
	}
	return ops
}
