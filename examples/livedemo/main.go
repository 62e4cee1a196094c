// Livedemo: the same termination-protocol automata running on real
// goroutines, in-process links and wall-clock timers. A partition rises
// while the protocol runs and heals shortly after; every site still
// terminates, consistently — the goroutine runtime, the termnode daemon
// and the deterministic simulator share one site runtime and the
// identical automaton code.
package main

import (
	"fmt"
	"time"

	"termproto"
)

func main() {
	const liveT = 20 * time.Millisecond

	fmt.Println("5 live sites, T =", liveT)
	fmt.Println("partition@2T separates sites 4 and 5; heal@14T")
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Backend:  termproto.NewLiveBackend(termproto.LiveOptions{T: liveT}),
		// Raise the partition mid-protocol and heal it a few windows later.
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2000, 4, 5),
			termproto.HealAt(14_000),
		},
	})
	if err != nil {
		panic(err)
	}
	r, err := c.Submit(termproto.Txn{})
	if err != nil {
		panic(err)
	}
	if err := c.Wait(); err != nil {
		panic(err)
	}
	c.Close() // final automaton states land in the result

	fmt.Println()
	for _, id := range r.Participants {
		s := r.Sites[id]
		fmt.Printf("  site %d: %s (state %s)\n", id, s.Outcome, s.FinalState)
	}
	fmt.Printf("\nall participants decided: %v\n", r.Decided())
	fmt.Printf("outcomes consistent:      %v\n", r.Consistent())
	if err := c.Termination(); err != nil {
		fmt.Println("termination: VIOLATED:", err)
	} else {
		fmt.Println("termination: ok")
	}
}
