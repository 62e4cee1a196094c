// Package chaos generates, runs, and verifies randomized fault schedules.
// A single uint64 seed deterministically derives a complete scenario — a
// named family (happy-path, abort-heavy, timeout, stress,
// migration-under-partition), cluster shape, workload shape, and an
// ordinary cluster.Schedule composing partitions × crashes × membership
// churn — so every run is replayable from its seed alone, and the same
// scenario runs on the deterministic sim backend or (for net-compatible
// families) the real-process net backend.
//
// A run's evidence — the execution trace, transaction results, final
// engine snapshots and durable decision maps — feeds internal/check,
// which turns the paper's safety claims into machine-verified invariants.
package chaos

import (
	"fmt"
	"sort"

	"termproto/internal/check"
	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
	"termproto/internal/workload"
)

// Family names a scenario family — a region of fault-schedule space with
// a characteristic failure signature.
type Family string

// The scenario families.
const (
	// HappyPath runs fault-free traffic: the baseline every invariant
	// must trivially hold on.
	HappyPath Family = "happy-path"
	// AbortHeavy mixes in transfers that violate the balance guard, so a
	// large fraction of transactions abort unilaterally — exercising
	// abort propagation, optionally under a transient partition.
	AbortHeavy Family = "abort-heavy"
	// Timeout injects exactly one partition during traffic — the paper's
	// simple-partitioning model — driving the §6 timeout cases.
	Timeout Family = "timeout"
	// Stress composes sequential transient partitions with crash/recover
	// churn over a sharded cluster under zipfian multi-op traffic.
	Stress Family = "stress"
	// Migration runs join/leave/move membership churn with a transient
	// partition overlapping the migrations.
	Migration Family = "migration-under-partition"
)

// Families lists the scenario families in generation order.
func Families() []Family {
	return []Family{HappyPath, AbortHeavy, Timeout, Stress, Migration}
}

// Scenario is one fully-determined chaos run. Every field derives from
// Seed; Run uses only the seed and these fields, so a scenario is
// replayable from the seed alone.
type Scenario struct {
	Seed   uint64
	Family Family
	// Protocol is the commit protocol's registry name.
	Protocol string
	Sites    int
	// Shards/RF configure sharded placement; Shards 0 is full replication.
	Shards int
	RF     int
	// Spare, when non-zero, is a provisioned site outside the initial
	// membership (it joins mid-run in the migration family).
	Spare    proto.SiteID
	Accounts int
	Balance  int64
	Txns     int
	Ops      int
	Zipf     float64
	// Spacing is the submission interval between transactions, in ticks.
	Spacing sim.Duration
	// BigEvery makes every k-th transfer exceed the total balance, so the
	// balance guard aborts it (0 = never) — the abort-heavy knob.
	BigEvery int
	// Schedule is the fault script. Every partition is transient and
	// every crash has a matching recover, so the run quiesces healed.
	Schedule cluster.Schedule
}

// String renders the scenario's headline in one line.
func (s Scenario) String() string {
	return fmt.Sprintf("seed=%d family=%s proto=%s sites=%d shards=%d rf=%d txns=%d events=%d",
		s.Seed, s.Family, s.Protocol, s.Sites, s.Shards, s.RF, s.Txns, len(s.Schedule))
}

// NetCompatible reports whether the scenario can run unchanged on the
// real-process net backend, which rejects directories past epoch 0 and
// all membership events.
func (s Scenario) NetCompatible() bool {
	if s.Shards > 0 {
		return false
	}
	for _, ev := range s.Schedule {
		switch ev.Kind {
		case cluster.EvJoin, cluster.EvLeave, cluster.EvMove:
			return false
		}
	}
	return true
}

// FromSeed derives the complete scenario a seed names: the family is the
// first draw, everything else follows from the same deterministic stream.
func FromSeed(seed uint64) Scenario {
	rng := sim.NewRand(seed)
	fams := Families()
	fam := fams[rng.Intn(len(fams))]
	return generate(seed, fam, rng)
}

// FromSeedIn is FromSeed restricted to one family (the family draw is
// still consumed, keeping the rest of the stream identical).
func FromSeedIn(seed uint64, fam Family) Scenario {
	rng := sim.NewRand(seed)
	rng.Intn(len(Families()))
	return generate(seed, fam, rng)
}

func generate(seed uint64, fam Family, rng *sim.Rand) Scenario {
	t := int64(sim.DefaultT)
	sc := Scenario{
		Seed:     seed,
		Family:   fam,
		Protocol: registry.Default,
		Sites:    4 + rng.Intn(3), // 4..6
		Accounts: 8 + rng.Intn(9), // 8..16
		Balance:  100,
		Txns:     8 + rng.Intn(9), // 8..16
		Ops:      2 + rng.Intn(2), // 2..3
		Zipf:     rng.Float64(),   // 0..1
		Spacing:  sim.Duration(t/2 + rng.Int63n(t)),
	}
	// The traffic window: submissions span [Spacing, Txns*Spacing].
	window := int64(sc.Spacing) * int64(sc.Txns)
	// onset draws a fault time inside the traffic window (after the first
	// submissions are in flight).
	onset := func() sim.Time { return sim.Time(t + rng.Int63n(window)) }
	// split draws a non-empty proper subset for a partition's G2.
	split := func(sites int) []proto.SiteID {
		var g2 []proto.SiteID
		for s := 2; s <= sites; s++ {
			if rng.Bool() {
				g2 = append(g2, proto.SiteID(s))
			}
		}
		if len(g2) == sites-1 {
			g2 = g2[:len(g2)-1]
		}
		if len(g2) == 0 {
			g2 = []proto.SiteID{proto.SiteID(sites)}
		}
		return g2
	}
	switch fam {
	case HappyPath:
		// Fault-free; rotate through the protocol set (safe without
		// partitions) to cross-check the invariants protocol-independently.
		sc.Protocol = []string{"2pc", "termination", "termination+transient"}[rng.Intn(3)]
	case AbortHeavy:
		sc.BigEvery = 2 + rng.Intn(2) // every 2nd..3rd transfer oversized
		switch rng.Intn(3) {
		case 1:
			at := onset()
			sc.Schedule = append(sc.Schedule,
				cluster.TransientPartitionAt(at, at+sim.Time(2*t+rng.Int63n(2*t)), split(sc.Sites)...))
		case 2:
			// A crash with no partition: crash-only is inside the
			// termination protocol's envelope (the recovered site resolves
			// in-doubt transactions via inquiry, and an absent master makes
			// slaves time out consistently because no prepare is partially
			// lost without a partition). The site restarts only after the
			// traffic drains: recovery catch-up is a one-shot snapshot
			// pull, so a mid-traffic restart would leave the site missing
			// writes of transactions still in flight at that instant (the
			// anti-entropy pass is a known open item).
			site := proto.SiteID(1 + rng.Intn(sc.Sites))
			sc.Schedule = append(sc.Schedule,
				cluster.CrashAt(onset(), site),
				cluster.RecoverAt(sim.Time(window+12*t), site))
		}
	case Timeout:
		// Exactly one transient partition and nothing else — the paper's
		// simple-partitioning model, the termination protocol's designed
		// envelope. §6 bounds are checked strictly here.
		at := onset()
		sc.Schedule = append(sc.Schedule,
			cluster.TransientPartitionAt(at, at+sim.Time(2*t+rng.Int63n(3*t)), split(sc.Sites)...))
	case Stress:
		// Partitions and crashes compose in sequence, never in overlap: a
		// master crashing in p1u mid-partition would let w-timeout aborts
		// race pt-timeout commits — that composition is outside the
		// paper's simple-partitioning model, where the termination
		// protocol's guarantees hold. Partitions live in the first half of
		// the traffic window, crashes strike in the second half (≥ 12T
		// after the last heal, past any partition-lengthened transaction
		// lifetime), and crashed sites restart after the traffic drains so
		// the one-shot catch-up pull sees stable donors.
		sc.Sites = 6 + rng.Intn(3)                     // 6..8
		sc.Txns = 20 + rng.Intn(5)                     // 20..24
		sc.Spacing = sim.Duration(2*t + rng.Int63n(t)) // stretch the window
		sc.Zipf = 0.9 + rng.Float64()*0.3
		sc.Ops = 3
		sc.Shards = sc.Sites
		sc.RF = 2 + rng.Intn(2) // 2..3
		window = int64(sc.Spacing) * int64(sc.Txns)
		// Two sequential transient partitions, separated by more than a
		// partition-lengthened transaction lifetime (~10T): the transient
		// fix guarantees consistency for a transaction that lives through
		// ONE partition, so no transaction may straddle both.
		first := sim.Time(t + rng.Int63n(window/8))
		heal1 := first + sim.Time(2*t+rng.Int63n(2*t))
		second := heal1 + sim.Time(12*t+rng.Int63n(2*t))
		heal2 := second + sim.Time(2*t+rng.Int63n(2*t))
		sc.Schedule = append(sc.Schedule,
			cluster.TransientPartitionAt(first, heal1, split(sc.Sites)...),
			cluster.TransientPartitionAt(second, heal2, split(sc.Sites)...))
		crashFrom := int64(heal2) + 12*t
		for i, site := range pickSpread(rng, sc.Sites, 1+rng.Intn(2), sc.RF) {
			down := crashFrom + rng.Int63n(window-crashFrom+t)
			// Staggered restarts: a recovering site must not pick a donor
			// that is itself mid-restart on the same tick.
			sc.Schedule = append(sc.Schedule,
				cluster.CrashAt(sim.Time(down), site),
				cluster.RecoverAt(sim.Time(window+12*t+int64(i)*2*t), site))
		}
	case Migration:
		sc.Sites = 5 + rng.Intn(2) // 5..6, last one spare
		sc.Shards = sc.Sites
		sc.RF = 2
		sc.Spare = proto.SiteID(sc.Sites)
		sc.Txns = 10 + rng.Intn(7)
		window = int64(sc.Spacing) * int64(sc.Txns)
		join := sim.Time(t + rng.Int63n(window/2))
		sc.Schedule = append(sc.Schedule, cluster.JoinAt(join, sc.Spare))
		if rng.Bool() {
			// A shard move after the join settles; source drawn from the
			// epoch-0 layout, so a stale source just fails the migration
			// cleanly — chaos includes invalid operator actions.
			shard := rng.Intn(sc.Shards)
			from := proto.SiteID(1 + (shard % (sc.Sites - 1)))
			sc.Schedule = append(sc.Schedule,
				cluster.MoveShardAt(join+sim.Time(3*t), shard, from, sc.Spare))
		}
		// The partition overlaps the membership churn.
		at := join + sim.Time(rng.Int63n(3*t))
		sc.Schedule = append(sc.Schedule,
			cluster.TransientPartitionAt(at, at+sim.Time(2*t+rng.Int63n(2*t)), split(sc.Sites)...))
		if rng.Bool() {
			leave := at + sim.Time(4*t+rng.Int63n(2*t))
			sc.Schedule = append(sc.Schedule, cluster.LeaveAt(leave, sc.Spare))
		}
	}
	sort.SliceStable(sc.Schedule, func(i, j int) bool { return sc.Schedule[i].At < sc.Schedule[j].At })
	return sc
}

// Result is one run's collected evidence, shaped for the checker.
type Result struct {
	Scenario Scenario
	Events   []trace.Event
	Results  []*cluster.TxnResult
	Stats    cluster.Stats
	// TransferTIDs lists the TIDs of the generated transfers (excluding
	// membership metadata transactions), ascending.
	TransferTIDs []uint64
	// Masters maps each transaction to its coordinating site.
	Masters map[uint64]int
	// Snapshots/Unstable/Durable are per-site engine state at quiescence.
	Snapshots map[int]map[string][]byte
	Unstable  map[int]map[string]bool
	Durable   map[int]map[uint64]string
	// Replicas/Primary resolve a key's replica set and authoritative copy
	// at the directory's final epoch (full replication: all sites, site 1).
	Replicas func(key string) []int
	Primary  func(key string) int
	// Keys are the account keys; Total is the conserved sum.
	Keys  []string
	Total int64
}

// Run executes the scenario on the deterministic sim backend and collects
// the checker's evidence. Identical seeds produce identical results.
func Run(sc Scenario) (*Result, error) {
	protocol, err := registry.Lookup(sc.Protocol)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var dir *placement.Directory
	members := allSites(sc.Sites)
	if sc.Spare != 0 {
		members = members[:len(members)-1]
	}
	if sc.Shards > 0 {
		asg, err := placement.ArithmeticOver(sc.Shards, sc.RF, members)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		dir = placement.NewDirectory(asg)
	}
	engines := workload.EnginesFor(dir, sc.Sites, sc.Accounts, sc.Balance)
	parts := make(map[proto.SiteID]cluster.Participant, len(engines))
	for id, e := range engines {
		parts[id] = e
	}
	var policy cluster.MasterPolicy
	if dir == nil && sc.Seed%2 == 1 {
		policy = cluster.MasterRoundRobin()
	}
	backend := cluster.NewSimBackend(cluster.SimOptions{
		Seed:        sc.Seed,
		RecordTrace: true,
		Latency:     simnet.Uniform{Lo: sim.DefaultT / 3, Hi: sim.DefaultT},
	})
	c, err := cluster.Open(cluster.Config{
		Sites:        sc.Sites,
		Protocol:     protocol,
		Directory:    dir,
		Participants: parts,
		Schedule:     sc.Schedule,
		MasterPolicy: policy,
		Backend:      backend,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer c.Close()

	transfers, err := submitTraffic(c, sc, 0)
	if err != nil {
		return nil, err
	}
	if err := c.Wait(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	r := &Result{
		Scenario: sc,
		Results:  c.Results(),
		Stats:    c.Stats(),
		Masters:  make(map[uint64]int),
		Keys:     accountKeys(sc.Accounts),
		Total:    int64(sc.Accounts) * sc.Balance,
	}
	for _, tid := range transfers {
		r.TransferTIDs = append(r.TransferTIDs, uint64(tid))
	}
	for _, res := range r.Results {
		r.Masters[uint64(res.TID)] = int(res.Master)
	}
	if rec := backend.Trace(); rec != nil {
		r.Events = rec.Events()
	}
	r.Snapshots = make(map[int]map[string][]byte, len(engines))
	r.Unstable = make(map[int]map[string]bool, len(engines))
	r.Durable = make(map[int]map[uint64]string, len(engines))
	for id, e := range engines {
		snap, unstable := e.StableSnapshot()
		r.Snapshots[int(id)] = snap
		r.Unstable[int(id)] = unstable
		durable := make(map[uint64]string)
		for _, res := range r.Results {
			if o, ok := e.Outcome(uint64(res.TID)); ok {
				durable[uint64(res.TID)] = o.String()
			}
		}
		r.Durable[int(id)] = durable
	}
	if d := c.Directory(); d != nil {
		_, asg := d.Current()
		r.Replicas = func(key string) []int {
			reps := asg.Replicas(asg.ShardOf(key))
			out := make([]int, len(reps))
			for i, id := range reps {
				out[i] = int(id)
			}
			return out
		}
		r.Primary = func(key string) int { return int(asg.Primary(asg.ShardOf(key))) }
	} else {
		r.Primary = func(string) int { return 1 }
	}
	return r, nil
}

// submitTraffic generates and submits the scenario's transfers, each At
// base + i*Spacing. It returns the transfer TIDs in submission order.
func submitTraffic(c *cluster.Cluster, sc Scenario, base sim.Time) ([]proto.TxnID, error) {
	rng := sim.NewRand(sc.Seed + 0xc4a05)
	zipf := workload.NewZipf(sc.Accounts, sc.Zipf)
	ops := sc.Ops
	if ops < 2 {
		ops = 2
	}
	if ops > sc.Accounts {
		ops = sc.Accounts
	}
	var tids []proto.TxnID
	for i := 1; i <= sc.Txns; i++ {
		chain := zipf.DrawDistinct(rng, ops)
		amount := int64(1 + rng.Intn(40))
		if sc.BigEvery > 0 && i%sc.BigEvery == 0 {
			// Exceeds the whole money supply: the balance guard at the
			// debited account votes no, aborting unilaterally.
			amount = sc.Balance*int64(sc.Accounts) + 1
		}
		payload := engine.EncodeOps(workload.ChainOps(chain, amount))
		res, err := c.Submit(cluster.Txn{
			Payload: payload,
			At:      base + sim.Time(int64(sc.Spacing)*int64(i)),
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: submit txn %d: %w", i, err)
		}
		tids = append(tids, res.TID)
	}
	return tids, nil
}

// pickSpread draws up to k distinct sites from 1..n, no two of which
// co-host a shard under arithmetic placement (ring distance ≥ rf): every
// shard keeps a live replica, so each recovering site finds an up donor
// for catch-up regardless of restart order.
func pickSpread(rng *sim.Rand, n, k, rf int) []proto.SiteID {
	var out []proto.SiteID
	for _, p := range rng.Perm(n) {
		ok := true
		for _, prev := range out {
			d := int(prev) - 1 - p
			if d < 0 {
				d = -d
			}
			if d < rf || n-d < rf {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, proto.SiteID(p+1))
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func allSites(n int) []proto.SiteID {
	out := make([]proto.SiteID, n)
	for i := range out {
		out[i] = proto.SiteID(i + 1)
	}
	return out
}

func accountKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("acct/%d", i)
	}
	return out
}

// CheckInput shapes the run's evidence for the offline checker.
func (r *Result) CheckInput() check.Input {
	return check.Input{
		Events:    r.Events,
		Masters:   r.Masters,
		Snapshots: r.Snapshots,
		Unstable:  r.Unstable,
		Replicas:  r.Replicas,
		Durable:   r.Durable,
		Conservation: &check.Conservation{
			Keys:    r.Keys,
			Primary: r.Primary,
			Total:   r.Total,
		},
	}
}

// Verify runs the full invariant suite over the run: the trace/state
// checker plus the result-level completeness checks (every transaction
// decided at every live participant, consistently). It returns every
// violation found; an empty slice is the protocol keeping its promise.
func Verify(r *Result) []check.Violation {
	out := check.Check(r.CheckInput())
	return append(out, resultViolations(r)...)
}

// resultViolations runs the result-level completeness checks: every
// transaction decided at every live participant, consistently.
func resultViolations(r *Result) []check.Violation {
	var out []check.Violation
	for _, res := range r.Results {
		tid := uint64(res.TID)
		if !res.Consistent() {
			out = append(out, check.Violation{
				Rule: check.RuleAgreement, TID: tid,
				Detail: "result outcome set inconsistent across sites",
				Events: check.SubHistory(r.Events, tid),
			})
		}
		if b := res.Blocked(); len(b) > 0 {
			out = append(out, check.Violation{
				Rule: check.RuleAgreement, TID: tid,
				Detail: fmt.Sprintf("blocked at sites %v at quiescence", b),
				Events: check.SubHistory(r.Events, tid),
			})
		}
	}
	return out
}
