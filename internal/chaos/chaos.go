// Package chaos generates, runs, and verifies simulated banking runs.
// A Scenario names one run completely: cluster shape, protocol, master
// policy, latency model, traffic shape and an ordinary cluster.Schedule
// composing partitions × crashes × membership churn. A single uint64 seed
// deterministically derives one (a named family — happy-path,
// abort-heavy, timeout, stress, migration-under-partition — and all the
// rest), so a generated run is replayable from its seed alone;
// cmd/termsim builds one from its flags, and the rows in rows_test.go by
// hand. Run executes a scenario on the deterministic sim backend and
// RunNet on real termnode processes, through one body.
//
// A run's evidence is the cluster's own (cluster.Evidence: the execution
// trace, final engine snapshots and durable decision maps) with the
// conservation rule over the scenario's accounts; Verify judges it by
// cluster.Judge, which turns the paper's safety claims into
// machine-verified invariants.
package chaos

import (
	"errors"
	"fmt"
	"sort"

	"termproto/internal/check"
	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/sim"
	"termproto/internal/simnet"
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

// Scenario is one fully-determined run. Run uses only these fields, so a
// scenario is replayable from its value, and a generated one from its
// Seed alone.
type Scenario struct {
	// Seed drives the latency draws and the generated payloads.
	Seed   uint64
	Family Family
	// Protocol is the commit protocol's registry name.
	Protocol string
	Sites    int
	// Shards/RF configure sharded placement; Shards 0 is full replication.
	Shards int
	RF     int
	// Masters is the master policy: "" or "fixed" (the cluster default:
	// site 1, or the primary under Shards), "rr" (round-robin) or
	// "primary" (shard-local).
	Masters string
	// Latency draws each message's delay on the simulator; nil is
	// Uniform{T/3, T}. The daemons of RunNet keep their own link model.
	Latency simnet.Latency
	// NoVotes are sites that vote no on every transaction. A site with an
	// engine votes by its engine, so they need Accounts == 0.
	NoVotes []proto.SiteID
	// Accounts is the number of `acct/i` rows, each starting at Balance,
	// that transfers move money between. 0 is a protocol-only run: no
	// engines, and transactions with no payload.
	Accounts int
	Balance  int64
	Txns     int
	// Ops is the number of accounts a transfer chains through (at least
	// 2, at most Accounts); Zipf skews their draw toward low indices.
	Ops  int
	Zipf float64
	// Spacing is the submission interval between transactions, in ticks;
	// transaction i (1-based) is submitted at i*Spacing.
	Spacing sim.Duration
	// BigEvery makes every k-th transfer exceed the total balance, so the
	// balance guard aborts it (0 = never) — the abort-heavy knob.
	BigEvery int
	// Schedule is the fault script. A site whose first membership event
	// is a join starts outside the membership. In a generated scenario
	// every partition is transient and every crash has a matching
	// recover, so the run quiesces healed.
	Schedule cluster.Schedule
}

// String renders the scenario's headline in one line.
func (s Scenario) String() string {
	return fmt.Sprintf("seed=%d family=%s proto=%s sites=%d shards=%d rf=%d txns=%d events=%d",
		s.Seed, s.Family, s.Protocol, s.Sites, s.Shards, s.RF, s.Txns, len(s.Schedule))
}

// NetCompatible reports whether termchaos samples the scenario on the
// real-process net backend: full replication and no membership events.
// RunNet itself refuses only membership events.
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
		sc.Sites = 5 + rng.Intn(2) // 5..6, the last one spare
		sc.Shards = sc.Sites
		sc.RF = 2
		spare := proto.SiteID(sc.Sites) // outside the membership until it joins
		sc.Txns = 10 + rng.Intn(7)
		window = int64(sc.Spacing) * int64(sc.Txns)
		join := sim.Time(t + rng.Int63n(window/2))
		sc.Schedule = append(sc.Schedule, cluster.JoinAt(join, spare))
		if rng.Bool() {
			// A shard move after the join settles; source drawn from the
			// epoch-0 layout, so a stale source just fails the migration
			// cleanly — chaos includes invalid operator actions.
			shard := rng.Intn(sc.Shards)
			from := proto.SiteID(1 + (shard % (sc.Sites - 1)))
			sc.Schedule = append(sc.Schedule,
				cluster.MoveShardAt(join+sim.Time(3*t), shard, from, spare))
		}
		// The partition overlaps the membership churn.
		at := join + sim.Time(rng.Int63n(3*t))
		sc.Schedule = append(sc.Schedule,
			cluster.TransientPartitionAt(at, at+sim.Time(2*t+rng.Int63n(2*t)), split(sc.Sites)...))
		if rng.Bool() {
			leave := at + sim.Time(4*t+rng.Int63n(2*t))
			sc.Schedule = append(sc.Schedule, cluster.LeaveAt(leave, spare))
		}
	}
	sort.SliceStable(sc.Schedule, func(i, j int) bool { return sc.Schedule[i].At < sc.Schedule[j].At })
	if sc.Shards == 0 && seed%2 == 1 {
		sc.Masters = "rr" // odd unsharded seeds spread their masters
	}
	return sc
}

// Result is what a run reports: the cluster's evidence, with the
// conservation rule over the scenario's accounts, and the rest besides.
type Result struct {
	// Input is the run's evidence (cluster.Evidence) plus Conservation:
	// the account keys, each key's authoritative copy — its shard's
	// primary at the final epoch, or site 1 under full replication — and
	// the conserved sum.
	check.Input
	Scenario Scenario
	// Schedule is the fault schedule the cluster ran: the scenario's,
	// moved past the seed round on a net run that seeds accounts.
	Schedule cluster.Schedule
	Results  []*cluster.TxnResult
	Stats    cluster.Stats
	// Transfers are the results of the scenario's transactions in
	// submission order (not the account seeding or membership metadata
	// transactions).
	Transfers []*cluster.TxnResult
	// Directory is the run's shard directory at quiescence (nil under
	// full replication).
	Directory *placement.Directory
	// Recoveries and Migrations report each restart and membership
	// change.
	Recoveries []cluster.RecoveryReport
	Migrations []*cluster.MigrationReport
	// Workdir is the localnet root of a RunNet run.
	Workdir string
	metrics obs.Snapshot
}

// Metrics is the merge of the sites' metric registries at quiescence.
func (r *Result) Metrics() obs.Snapshot { return r.metrics }

// Run executes the scenario on the deterministic sim backend and collects
// the checker's evidence. Identical scenarios produce identical results.
func Run(sc Scenario) (*Result, error) {
	latency := sc.Latency
	if latency == nil {
		latency = simnet.Uniform{Lo: sim.DefaultT / 3, Hi: sim.DefaultT}
	}
	return run(sc, cluster.NewSimBackend(cluster.SimOptions{
		Seed:        sc.Seed,
		RecordTrace: true,
		Latency:     latency,
	}))
}

// run is the one body of Run and RunNet: it opens the cluster, seeds the
// accounts, submits the traffic, waits, closes the cluster and takes its
// evidence.
func run(sc Scenario, backend cluster.Backend) (*Result, error) {
	protocol, err := registry.Lookup(sc.Protocol)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	policy, err := masterPolicy(sc.Masters)
	if err != nil {
		return nil, err
	}
	if len(sc.NoVotes) > 0 && sc.Accounts > 0 {
		return nil, fmt.Errorf("chaos: no votes are scripted only in a protocol-only run (sites with an engine vote by it)")
	}
	var dir *placement.Directory
	if sc.Shards > 0 {
		asg, err := placement.ArithmeticOver(sc.Shards, sc.RF, initialMembers(sc.Sites, sc.Schedule))
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		dir = placement.NewDirectory(asg)
	}
	_, onNet := backend.(*cluster.NetBackend)
	// Simulated sites get engines seeded with their accounts. Daemons
	// start with empty engines of their own, so their accounts load
	// through an ordinary transaction first, and the schedule and the
	// traffic move past that round.
	var engines map[proto.SiteID]*engine.Engine
	base := sim.Time(0)
	switch {
	case sc.Accounts == 0:
	case onNet:
		base = netPreBase
	default:
		engines = EnginesFor(dir, sc.Sites, sc.Accounts, sc.Balance)
	}
	cfg := cluster.Config{
		Sites:        sc.Sites,
		Protocol:     protocol,
		Directory:    dir,
		Engines:      engines,
		Schedule:     shifted(sc.Schedule, base),
		MasterPolicy: policy,
		Backend:      backend,
	}
	if len(sc.NoVotes) > 0 {
		cfg.Votes = proto.NoAt(sc.NoVotes...)
	}
	c, err := cluster.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer c.Close()
	if base > 0 {
		// A seed that did not commit is a setup failure, not a
		// conservation violation.
		if err := seedAccounts(c, sc.Accounts, sc.Balance); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	transfers, err := submitTraffic(c, sc, base)
	if err != nil {
		return nil, err
	}
	// A wall-clock Wait that ran out of time leaves its transactions
	// blocked, and Verify reports them.
	if err := c.Wait(); err != nil && !errors.As(err, new(*cluster.UndecidedError)) {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	// A site that did not come back fails the run with its reason.
	for _, rep := range c.Recoveries() {
		if rep.Err != "" {
			return nil, fmt.Errorf("chaos: %s", rep)
		}
	}

	stats, metrics := c.Stats(), c.Metrics()
	// A daemon writes its trace as Close stops it.
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	r := &Result{
		Input:      c.Evidence(),
		Scenario:   sc,
		Schedule:   cfg.Schedule,
		Results:    c.Results(),
		Transfers:  transfers,
		Stats:      stats,
		Directory:  c.Directory(),
		Recoveries: c.Recoveries(),
		Migrations: c.Migrations(),
		metrics:    metrics,
	}
	primary := func(string) int { return 1 }
	if d := r.Directory; d != nil {
		_, asg := d.Current()
		primary = func(key string) int { return int(asg.Primary(asg.ShardOf(key))) }
	}
	r.Conservation = &check.Conservation{
		Keys:    accountKeys(sc.Accounts),
		Primary: primary,
		Total:   int64(sc.Accounts) * sc.Balance,
	}
	return r, nil
}

// masterPolicy resolves Scenario.Masters.
func masterPolicy(name string) (cluster.MasterPolicy, error) {
	switch name {
	case "", "fixed":
		return nil, nil
	case "rr":
		return cluster.MasterRoundRobin(), nil
	case "primary":
		return cluster.MasterPrimary(), nil
	}
	return nil, fmt.Errorf("chaos: unknown master policy %q (fixed, rr, primary)", name)
}

// initialMembers derives the directory's starting membership: every site
// except those whose first membership event on the timeline is a join —
// they begin as provisioned, empty capacity.
func initialMembers(sites int, sched cluster.Schedule) []proto.SiteID {
	first := make(map[proto.SiteID]cluster.EventKind)
	for _, ev := range sched.Sorted() {
		if ev.Kind != cluster.EvJoin && ev.Kind != cluster.EvLeave {
			continue
		}
		if _, seen := first[ev.Site]; !seen {
			first[ev.Site] = ev.Kind
		}
	}
	var out []proto.SiteID
	for i := 1; i <= sites; i++ {
		if id := proto.SiteID(i); first[id] != cluster.EvJoin {
			out = append(out, id)
		}
	}
	return out
}

// shifted returns the schedule with every event moved base later.
func shifted(sched cluster.Schedule, base sim.Time) cluster.Schedule {
	if base == 0 {
		return sched
	}
	out := make(cluster.Schedule, len(sched))
	for i, ev := range sched {
		ev.At += base
		if ev.Heal > 0 {
			ev.Heal += base
		}
		out[i] = ev
	}
	return out
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

// RunOn runs the scenario on the named backend — "sim" (Run) or "net"
// (RunNet, in workdir) — and judges it with Verify.
func RunOn(sc Scenario, backend, workdir string) (*Result, []check.Violation, error) {
	var r *Result
	var err error
	switch backend {
	case "sim":
		r, err = Run(sc)
	case "net":
		r, err = RunNet(sc, workdir)
	default:
		return nil, nil, fmt.Errorf("unknown backend %q", backend)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, Verify(r), nil
}

// Verify judges the run, on either backend, by cluster.Judge: the
// invariant suite of internal/check over the run's evidence, conservation
// included, plus the result-level rules. It returns every violation
// found; an empty slice is the protocol keeping its promise.
func Verify(r *Result) []check.Violation { return cluster.Judge(r.Input, r.Results) }
