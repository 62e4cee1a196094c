package main

import (
	"fmt"
	"math/rand"
	"time"

	"termproto/internal/db/engine"
)

// Fixed configuration, shared by every workload. See bench/README.md for
// why each value is what it is.
const (
	numSites    = 3
	protoName   = "termination+transient"
	delayT      = 20 * time.Millisecond // per-message delay is uniform in [T/4, T/2)
	numAccounts = 4096
	seedBalance = 1_000_000
	warmUp      = 2 * time.Second // the workload's own traffic, inside set-up
	cutSite     = 3
	cutPeriod   = time.Second
	cutOffset   = 300 * time.Millisecond // onset within each period
	cutLength   = 400 * time.Millisecond
)

// workload is one traffic mix. All are open loop: arrivals are evenly
// spaced at rate per second whatever the cluster does.
type workload struct {
	name string
	why  string
	rate int
	// hotKeys > 0 draws both accounts of every transfer from the first
	// hotKeys accounts.
	hotKeys int
	// cut partitions cutSite away for cutLength in every cutPeriod.
	cut bool
}

var workloads = []workload{
	{name: "uniform_open", rate: 200,
		why: "light load over all accounts: latency is protocol rounds plus the fsyncs and loop turns on the critical path, no queueing"},
	{name: "uniform_busy", rate: 300,
		why: "same mix at 1.5x the rate: site loops block on fsync, so queueing shows; batching and loop changes act here only"},
	{name: "hot_open", rate: 200, hotKeys: 32,
		why: "both accounts from 32 hot keys: no-wait lock conflicts become no-votes, so the lock table and abort path do the work"},
	{name: "partition_open", rate: 200, cut: true,
		why: "site 3 cut off 400 ms in every second: bounces, the paper's timers and heal decide how long a caught transaction waits"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func accountKey(i int) string { return fmt.Sprintf("acct/%d", i) }

// arrival is one scheduled transfer: move 1 from account from to account
// to, coordinated by master, due dueOffset after the leg's start.
type arrival struct {
	dueOffset time.Duration
	master    int
	from, to  int
}

func (a arrival) ops() []engine.Op {
	return []engine.Op{
		{Kind: engine.OpAdd, Key: accountKey(a.from), Delta: -1},
		{Kind: engine.OpAdd, Key: accountKey(a.to), Delta: +1},
	}
}

// schedule builds the leg's arrivals from the seed alone: evenly spaced
// at w.rate over total, masters rotating 1,2,3, accounts drawn from rng.
func schedule(w workload, seed int64, total time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	keys := numAccounts
	if w.hotKeys > 0 {
		keys = w.hotKeys
	}
	n := int(total * time.Duration(w.rate) / time.Second)
	out := make([]arrival, n)
	for i := range out {
		from := rng.Intn(keys)
		to := rng.Intn(keys - 1)
		if to >= from {
			to++
		}
		out[i] = arrival{
			dueOffset: time.Duration(i) * time.Second / time.Duration(w.rate),
			master:    1 + i%numSites,
			from:      from,
			to:        to,
		}
	}
	return out
}

// cutWindow is one scheduled partition of cutSite, as offsets from the
// leg's start.
type cutWindow struct {
	onset, heal time.Duration
}

// cutSchedule lists every cut whose heal falls inside total.
func cutSchedule(total time.Duration) []cutWindow {
	var out []cutWindow
	for start := time.Duration(0); start+cutOffset+cutLength <= total; start += cutPeriod {
		out = append(out, cutWindow{onset: start + cutOffset, heal: start + cutOffset + cutLength})
	}
	return out
}
