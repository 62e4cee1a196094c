package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"termproto/internal/check"
	"termproto/internal/cluster"
	"termproto/internal/protocol/registry"
	"termproto/internal/sim"
	"termproto/internal/trace"
	"termproto/internal/workload"
)

// netPreBase shifts a net run's schedule and traffic past the account
// seeding round: the backend's fault timers start at Open, but accounts
// load through an ordinary transaction first.
const netPreBase = sim.Time(10 * sim.DefaultT)

// RunNet executes a net-compatible scenario on the real-process backend:
// one termnode daemon per site, TCP wire protocol, real fault injection
// (socket partitions, SIGKILL). Wire-level traces come from the daemons'
// -trace-out files, merged across nodes; state evidence comes from the
// admin API before shutdown. Timing on a real network is not
// tick-deterministic, so the checker runs with SkipBounds — RunNet
// validates that the protocol's safety holds off the simulator, not that
// the replay is bit-identical.
func RunNet(sc Scenario, workdir string) (*Result, error) {
	if !sc.NetCompatible() {
		return nil, fmt.Errorf("chaos: scenario %d (%s) is not net-compatible", sc.Seed, sc.Family)
	}
	shifted := make(cluster.Schedule, len(sc.Schedule))
	for i, ev := range sc.Schedule {
		ev.At += netPreBase
		if ev.Heal > 0 {
			ev.Heal += netPreBase
		}
		shifted[i] = ev
	}
	backend := cluster.NewNetBackend(cluster.NetOptions{
		Workdir:   workdir,
		Seed:      int64(sc.Seed),
		ExtraArgs: []string{"-trace-out", "trace.jsonl"},
	})
	p, err := registry.Lookup(sc.Protocol)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	c, err := cluster.Open(cluster.Config{
		Sites:    sc.Sites,
		Protocol: p,
		Backend:  backend,
		Schedule: shifted,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer c.Close()

	// Daemons start with empty engines; a seed that did not commit is a
	// setup failure, not a conservation violation.
	if err := workload.SeedAccounts(c, sc.Accounts, sc.Balance); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	transfers, err := submitTraffic(c, sc, netPreBase)
	if err != nil {
		return nil, err
	}
	if err := c.Wait(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	// A daemon that did not come back fails the run with its reason.
	for _, rep := range c.Recoveries() {
		if rep.Err != nil {
			return nil, fmt.Errorf("chaos: %s", rep)
		}
	}

	r := &Result{
		Scenario: sc,
		Results:  c.Results(),
		Stats:    c.Stats(),
		Masters:  make(map[uint64]int),
		Keys:     accountKeys(sc.Accounts),
		Total:    int64(sc.Accounts) * sc.Balance,
		Primary:  func(string) int { return 1 },
	}
	for _, tid := range transfers {
		r.TransferTIDs = append(r.TransferTIDs, uint64(tid))
	}
	for _, res := range r.Results {
		r.Masters[uint64(res.TID)] = int(res.Master)
	}
	// State evidence must precede Close (the admin APIs die with the
	// daemons); traces are written BY Close (each node exports at
	// graceful shutdown).
	r.Snapshots = make(map[int]map[string][]byte)
	for id, snap := range backend.Snapshots() {
		r.Snapshots[int(id)] = snap
	}
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	r.Events = mergeNodeTraces(backend.Workdir(), sc.Sites)
	return r, nil
}

// mergeNodeTraces reads every node's trace.jsonl under the localnet root
// and merges them into one timeline. Nodes that died without exporting
// (SIGKILL) simply contribute nothing.
func mergeNodeTraces(workdir string, sites int) []trace.Event {
	var all []trace.Event
	for id := 1; id <= sites; id++ {
		path := filepath.Join(workdir, fmt.Sprintf("node-%d", id), "trace.jsonl")
		if _, err := os.Stat(path); err != nil {
			continue
		}
		evs, err := trace.ReadJSONLFile(path)
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
	in.Durable = nil
	out := check.Check(in)
	return append(out, resultViolations(r)...)
}
