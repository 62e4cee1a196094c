package chaos

import (
	"termproto/internal/cluster"
	"termproto/internal/sim"
)

// netPreBase shifts a net run's schedule and traffic past the account
// seeding round: the backend's fault timers start at Open, but accounts
// load through an ordinary transaction first.
const netPreBase = sim.Time(10 * sim.DefaultT)

// RunNet executes a scenario on the real-process backend: one termnode
// daemon per site, TCP wire protocol, real fault injection (socket
// partitions, SIGKILL), and the epoch-0 shard directory when Shards is
// set. The backend refuses membership events. Timing on a real network is
// not tick-deterministic, so the evidence skips the §6 bounds — RunNet
// validates that the protocol's safety holds off the simulator, not that
// the replay is bit-identical.
func RunNet(sc Scenario, workdir string) (*Result, error) {
	b := cluster.NewNetBackend(cluster.NetOptions{Workdir: workdir, Seed: int64(sc.Seed)})
	r, err := run(sc, b)
	if err != nil {
		return nil, err
	}
	r.Workdir = b.Workdir()
	return r, nil
}
