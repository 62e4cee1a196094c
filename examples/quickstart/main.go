// Quickstart: the unified Cluster API. A five-site cluster serves ten
// concurrent transfer-style transactions while a network partition
// separates two sites mid-traffic and later heals. Under the paper's
// termination protocol every transaction terminates at every site, and
// all decisions agree — the headline property.
//
// The same scenario under plain two-phase commit strands transactions on
// the separated sites (holding their locks forever). Each run is judged by
// Cluster.Verify, and the example exits 1 if either claim breaks: the
// termination protocol reports a violation, or 2PC reports none.
package main

import (
	"fmt"
	"os"

	"termproto"
)

// schedule is the fault timeline, shared by every run below: the paper's
// G2 = {4, 5} separates at 4.5T and the boundary disappears at 12T, so
// the partition catches the middle of the transaction stream.
var schedule = termproto.Schedule{
	termproto.PartitionAt(4500, 4, 5),
	termproto.HealAt(12_000),
}

// run runs ten transactions under cfg, prints them and returns how many
// violations Verify reports.
func run(name string, cfg termproto.ClusterConfig) int {
	fmt.Printf("== %s ==\n", name)
	c, err := termproto.Open(cfg)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Ten concurrent transactions, staggered along the timeline so the
	// partition catches several of them mid-protocol.
	batch := make([]termproto.Txn, 10)
	for i := range batch {
		batch[i].At = termproto.Time(i * 900)
	}
	rs, err := c.SubmitBatch(batch)
	if err != nil {
		panic(err)
	}
	if err := c.Wait(); err != nil {
		panic(err)
	}

	for _, r := range rs {
		fmt.Printf("  txn %2d (master %d): %-6s consistent=%v blocked=%v\n",
			r.TID, r.Master, r.Outcome(), r.Consistent(), r.Blocked())
	}
	vs := c.Verify()
	for _, v := range vs {
		fmt.Println("  termination VIOLATED:", v)
	}
	if len(vs) == 0 {
		fmt.Println("  termination holds: every transaction decided, atomically")
	}
	fmt.Printf("  %s\n\n", c.Stats())
	return len(vs)
}

func main() {
	// The paper's protocol: every transaction terminates despite the
	// partition — aborted if the partition caught it, committed otherwise.
	term := run("termination protocol, sim backend", termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Schedule: schedule,
	})

	// The motivating defect: 2PC leaves separated sites blocked forever.
	twoPC := run("plain two-phase commit, sim backend", termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TwoPC(),
		Schedule: schedule,
	})
	if term > 0 || twoPC == 0 {
		os.Exit(1)
	}
}
