// Banking: the paper's Section 2 motivation end to end on the database
// substrate. Five bank branches replicate an account ledger; transfers
// run as distributed transactions through a commit protocol, all on one
// long-lived cluster timeline.
//
// Under two-phase commit, a partition that catches a transfer mid-commit
// leaves it blocked at the separated branches, holding what it took there
// forever. A transfer only adds to its two rows, so what it holds is not
// the whole row: other adds still go beside it. It holds its reservation —
// the amount it debits, which no other debit may spend, and its credit,
// which nobody may spend before it commits — and it keeps any write off
// both rows. A later transfer that needs the reserved money is refused
// ("data inaccessible to other transactions") even after the boundary
// heals. Under the termination protocol, every branch terminates the
// stranded transfer consistently, its locks and reservation are released,
// and business continues — on both sides of the partition.
//
// Each run is judged by Cluster.Verify, and the example exits 1 if either
// claim breaks: the termination protocol reports a violation, or 2PC
// reports none.
package main

import (
	"fmt"
	"os"

	"termproto"
)

const branches = 5

func newLedgers() map[termproto.SiteID]*termproto.Engine {
	ledgers := make(map[termproto.SiteID]*termproto.Engine, branches)
	for i := 1; i <= branches; i++ {
		e := termproto.NewEngine(fmt.Sprintf("branch-%d", i), &termproto.MemStore{})
		e.PutInt("acct/alice", 1000)
		e.PutInt("acct/bob", 200)
		ledgers[termproto.SiteID(i)] = e
	}
	return ledgers
}

func transfer(from, to string, amount int64) []byte {
	return termproto.EncodeOps([]termproto.Op{
		{Kind: termproto.OpAdd, Key: "acct/" + from, Delta: -amount},
		{Kind: termproto.OpAdd, Key: "acct/" + to, Delta: +amount},
	})
}

// run drives three transfers under p, prints the ledgers and returns how
// many violations Verify reports.
func run(name string, p termproto.Protocol) int {
	fmt.Printf("== %s ==\n", name)
	ledgers := newLedgers()
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    branches,
		Protocol: p,
		Engines:  ledgers,
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	wait := func() {
		if err := c.Wait(); err != nil {
			panic(err)
		}
	}

	// Transfer 1 succeeds cleanly.
	r1, err := c.Submit(termproto.Txn{Payload: transfer("alice", "bob", 100)})
	if err != nil {
		panic(err)
	}
	wait()
	fmt.Printf("  txn 1 (alice→bob 100): %s\n", r1.Outcome())

	// Transfer 2 is caught by a partition separating branches 4 and 5
	// just after the votes land (commit round in flight).
	start := c.Now()
	if err := c.Inject(termproto.PartitionAt(start+termproto.Time(2*termproto.T)+400, 4, 5)); err != nil {
		panic(err)
	}
	r2, err := c.Submit(termproto.Txn{Payload: transfer("alice", "bob", 250), At: start})
	if err != nil {
		panic(err)
	}
	wait()
	fmt.Printf("  txn 2 (alice→bob 250) under partition: %s  blocked=%v\n",
		r2.Outcome(), r2.Blocked())

	// The boundary disappears; whatever damage it did persists. Transfer 3
	// needs 700 of alice's 900: at branches 4 and 5 a blocked transfer 2
	// still reserves 250 of them (and where it committed, it spent them).
	if err := c.Inject(termproto.HealAt(c.Now())); err != nil {
		panic(err)
	}
	r3, err := c.Submit(termproto.Txn{Payload: transfer("alice", "bob", 700), At: c.Now()})
	if err != nil {
		panic(err)
	}
	wait()
	fmt.Printf("  txn 3 (alice→bob 700) after heal: %s\n", r3.Outcome())

	fmt.Println("  final ledgers (alice/bob) and lock state:")
	for i := 1; i <= branches; i++ {
		e := ledgers[termproto.SiteID(i)]
		locked := ""
		if e.Locked("acct/alice") || e.Locked("acct/bob") {
			locked = "   <-- rows still LOCKED by the blocked transfer"
		}
		fmt.Printf("    branch %d: alice=%-5d bob=%-5d in-doubt=%v%s\n",
			i, e.GetInt("acct/alice"), e.GetInt("acct/bob"), e.InDoubt(), locked)
	}
	vs := c.Verify()
	for _, v := range vs {
		fmt.Printf("  termination VIOLATED: %v\n", v)
	}
	if len(vs) == 0 {
		fmt.Println("  termination holds: every transfer decided, replicas identical")
	}
	fmt.Println()
	return len(vs)
}

func main() {
	twoPC := run("two-phase commit", termproto.TwoPC())
	term := run("Huang–Li termination protocol", termproto.Termination())
	if term > 0 || twoPC == 0 {
		os.Exit(1)
	}
}
