package chaos

import (
	"fmt"
	"path/filepath"
	"sort"

	"termproto/internal/check"
	"termproto/internal/cluster"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// netPreBase shifts a net run's schedule and traffic past the account
// seeding round: the backend's fault timers start at Open, but accounts
// load through an ordinary transaction first.
const netPreBase = sim.Time(10 * sim.DefaultT)

// RunNet executes a scenario on the real-process backend: one termnode
// daemon per site, TCP wire protocol, real fault injection (socket
// partitions, SIGKILL), and the epoch-0 shard directory when Shards is
// set. The backend refuses membership events. Wire-level traces come from
// the daemons' -trace-out files, merged across nodes; state evidence
// comes from the admin API before shutdown. Timing on a real network is
// not tick-deterministic, so VerifyNet skips the §6 bounds — RunNet
// validates that the protocol's safety holds off the simulator, not that
// the replay is bit-identical.
func RunNet(sc Scenario, workdir string) (*Result, error) {
	return run(sc, cluster.NewNetBackend(cluster.NetOptions{
		Workdir:   workdir,
		Seed:      int64(sc.Seed),
		ExtraArgs: []string{"-trace-out", "trace.jsonl"},
	}))
}

// mergeNodeTraces reads every node's trace.jsonl under the localnet root
// and merges them into one timeline. Nodes that died without exporting
// (SIGKILL) simply contribute nothing.
func mergeNodeTraces(workdir string, sites int) []trace.Event {
	var all []trace.Event
	for id := 1; id <= sites; id++ {
		evs, err := trace.ReadJSONLFile(filepath.Join(workdir, fmt.Sprintf("node-%d", id), "trace.jsonl"))
		if err != nil {
			continue
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// VerifyNet runs the invariant suite appropriate for a real-network run:
// trace timing is wall-clock so §6 bounds are skipped, and per-site
// durable decision maps are not exported over the admin API, but
// agreement, convergence, conservation and the result-level completeness
// checks all engage.
func VerifyNet(r *Result) []check.Violation {
	in := r.CheckInput()
	in.SkipBounds = true
	out := check.Check(in)
	return append(out, resultViolations(r)...)
}
