package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"termproto/internal/check"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// engines builds per-site replicas with `accounts` integer rows.
func engines(sites, accounts int, balance int64) map[proto.SiteID]*engine.Engine {
	out := make(map[proto.SiteID]*engine.Engine, sites)
	for i := 1; i <= sites; i++ {
		e := engine.New(fmt.Sprintf("site-%d", i), &wal.MemStore{})
		for a := 0; a < accounts; a++ {
			e.PutInt(fmt.Sprintf("acct/%d", a), balance)
		}
		out[proto.SiteID(i)] = e
	}
	return out
}

func transfer(from, to int, amount int64) []byte {
	return engine.EncodeOps([]engine.Op{
		{Kind: engine.OpAdd, Key: fmt.Sprintf("acct/%d", from), Delta: -amount},
		{Kind: engine.OpAdd, Key: fmt.Sprintf("acct/%d", to), Delta: +amount},
	})
}

// mustVerify fails t with every violation c.Verify reports.
func mustVerify(t *testing.T, c *Cluster) {
	t.Helper()
	vs := c.Verify()
	for _, v := range vs {
		t.Error(v)
	}
	if len(vs) > 0 {
		t.FailNow()
	}
}

// reportsBlocked reports whether vs names a transaction undecided at a
// live site.
func reportsBlocked(vs []check.Violation) bool {
	for _, v := range vs {
		if strings.Contains(v.Detail, "blocked at sites") {
			return true
		}
	}
	return false
}

// The acceptance scenario: many concurrent transactions multiplexed over
// one timeline, a partition rising and healing mid-traffic, every replica
// identical at the end.
func TestSimConcurrentTxnsUnderPartitionHeal(t *testing.T) {
	const sites, txns = 5, 12
	engs := engines(sites, txns+1, 10_000)
	c, err := Open(Config{
		Sites:    sites,
		Protocol: core.Protocol{TransientFix: true},
		Engines:  engs,
		Backend: NewSimBackend(SimOptions{
			Latency: simnet.Uniform{Lo: sim.DefaultT / 3, Hi: sim.DefaultT},
			Seed:    7,
		}),
		Schedule: Schedule{
			PartitionAt(2500, 4, 5),
			HealAt(9000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Disjoint account pairs so concurrency comes from the protocol, not
	// lock contention; staggered arrivals keep 8+ in flight at once.
	batch := make([]Txn, 0, txns)
	for i := 0; i < txns; i++ {
		batch = append(batch, Txn{
			Payload: transfer(i, i+1, 10),
			At:      sim.Time(i) * 400,
		})
	}
	if _, err := c.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, c)
	st := c.Stats()
	if st.Submitted != txns || st.Blocked != 0 || st.Inconsistent != 0 {
		t.Fatalf("stats: %v", st)
	}
	if st.Committed == 0 {
		t.Fatalf("no commits: %v", st)
	}
	if st.Committed+st.Aborted != txns {
		t.Fatalf("commit+abort != txns: %v", st)
	}
}

// The same acceptance scenario on live termnode daemons: eight concurrent
// transactions, a partition rising at 2.5T and healing at 12T, every
// transaction decided, and every daemon's engine holding exactly the
// committed writes.
func TestLiveConcurrentTxnsUnderPartitionHeal(t *testing.T) {
	const sites, txns = 5, 8
	nb := netBackend(t)
	c, err := Open(Config{
		Sites:    sites,
		Protocol: core.Protocol{TransientFix: true},
		Backend:  nb,
		Schedule: Schedule{
			PartitionAt(2500, 4, 5),
			HealAt(12_000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := make([]Txn, 0, txns)
	for i := 0; i < txns; i++ {
		batch = append(batch, Txn{Payload: put(fmt.Sprintf("k%d", i))})
	}
	rs, err := c.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, c)
	st := c.Stats()
	if st.Committed+st.Aborted != txns || st.Inconsistent != 0 {
		t.Fatalf("stats: %v", st)
	}
	snaps := nb.state().snaps
	if len(snaps) != sites {
		t.Fatalf("snapshots from %d/%d nodes", len(snaps), sites)
	}
	for i, r := range rs {
		key := fmt.Sprintf("k%d", i)
		for id, snap := range snaps {
			if _, have := snap[key]; have != (r.Outcome() == proto.Commit) {
				t.Errorf("site %d: holds %q = %v, txn %d %v", id, key, have, r.TID, r.Outcome())
			}
		}
	}
}

// The motivating contrast: 2PC under a permanent partition strands
// transactions, and Verify reports it.
func TestSimTwoPCBlocksUnderPartition(t *testing.T) {
	c, err := Open(Config{
		Sites:    4,
		Protocol: twopc.Protocol{},
		Schedule: Schedule{PartitionAt(2500, 3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(Txn{At: sim.Time(i) * 500}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Blocked == 0 {
		t.Fatalf("2PC under a permanent partition should block: %v", st)
	}
	if st.Inconsistent != 0 {
		t.Fatalf("2PC must stay atomic even while blocking: %v", st)
	}
	if !reportsBlocked(c.Verify()) {
		t.Fatal("Verify reports no blocked transaction")
	}
}

// Verify compares replicas: a write straight to one replica's engine
// after Wait — under full replication, and at one of a shard's replicas
// under a Directory — is reported as that key's divergence.
func TestSimVerifyReportsDivergedReplica(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			const key = "acct/0"
			engs, site := engines(4, 8, 1000), proto.SiteID(2)
			var d *placement.Directory
			if sharded {
				d = placement.NewDirectory(mustAssignment(t, 4, 2, 1, 2, 3, 4))
				engs = directoryEngines(d, 4, 8, 1000)
				_, asg := d.Current()
				reps := asg.Replicas(asg.ShardOf(key))
				site = reps[len(reps)-1]
			}
			c, err := Open(Config{Sites: 4, Protocol: core.Protocol{TransientFix: true}, Engines: engs, Directory: d})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.SubmitBatch([]Txn{{Payload: transfer(0, 1, 10)}, {Payload: transfer(2, 3, 10)}}); err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			mustVerify(t, c)
			engs[site].PutInt(key, 1)
			vs := c.Verify()
			if len(vs) != 1 || vs[0].Rule != check.RuleConvergence || !strings.Contains(vs[0].Detail, fmt.Sprintf("%q", key)) {
				t.Fatalf("after writing %s at site %d, Verify = %v; want one %s on it", key, site, vs, check.RuleConvergence)
			}
		})
	}
}

// Per-transaction master selection: coordination rotates across sites and
// every transaction still terminates.
func TestSimRoundRobinMasters(t *testing.T) {
	c, err := Open(Config{
		Sites:        4,
		Protocol:     core.Protocol{TransientFix: true},
		MasterPolicy: MasterRoundRobin(),
		Schedule:     Schedule{TransientPartitionAt(2000, 6000, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.SubmitBatch(make([]Txn, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	masters := make(map[proto.SiteID]int)
	for _, r := range rs {
		masters[r.Master]++
		if !r.Consistent() || !r.Decided() {
			t.Fatalf("txn %d (master %d): consistent=%v blocked=%v",
				r.TID, r.Master, r.Consistent(), r.Blocked())
		}
	}
	if len(masters) != 4 {
		t.Fatalf("masters not rotated: %v", masters)
	}
}

// Crash and recovery as timeline events: transactions submitted while a
// site is down run without it; after recovery it participates again.
func TestSimCrashRecover(t *testing.T) {
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Schedule: Schedule{
			CrashAt(1000, 3),
			RecoverAt(20_000, 3),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	during, err := c.Submit(Txn{At: 5000})
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Submit(Txn{At: 25_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !during.Sites[3].Crashed || during.Sites[3].Outcome != proto.None {
		t.Fatalf("txn during crash: site 3 = %+v", during.Sites[3])
	}
	if !during.Decided() || during.Outcome() != proto.Commit {
		t.Fatalf("txn during crash should commit on the survivors: %+v", during)
	}
	if after.Sites[3].Crashed || after.Sites[3].Outcome != proto.Commit {
		t.Fatalf("txn after recovery: site 3 = %+v", after.Sites[3])
	}
	mustVerify(t, c)
}

// A crash mid-transaction kills the site's automata: the survivors still
// terminate (the termination protocol's §7 site-failure argument).
func TestSimCrashMidTransaction(t *testing.T) {
	c, err := Open(Config{
		Sites:    5,
		Protocol: core.Protocol{TransientFix: true},
		Schedule: Schedule{CrashAt(2500, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r.Sites[5].Crashed {
		t.Fatalf("site 5 not marked crashed: %+v", r.Sites[5])
	}
	if !r.Consistent() || !r.Decided() {
		t.Fatalf("survivors must decide consistently: blocked=%v", r.Blocked())
	}
}

// Crash handling on live daemons: site 4 is SIGKILLed at 0.9T — after its
// yes vote, before any decision can reach it (five hops of at least T/4)
// — and never restarts. The survivors decide without it.
func TestLiveCrash(t *testing.T) {
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Backend:  netBackend(t),
		Schedule: Schedule{CrashAt(900, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(Txn{Payload: put("crash")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r.Consistent() {
		t.Fatalf("inconsistent: %+v", r.Sites)
	}
	if b := r.Blocked(); len(b) != 0 {
		t.Fatalf("blocked at %v", b)
	}
	for _, id := range []proto.SiteID{1, 2, 3} {
		if r.Sites[id].Outcome == proto.None {
			t.Errorf("survivor %d undecided: %+v", id, r.Sites[id])
		}
	}
}

// A participant dead at submission is left out of an explicit roster on
// live daemons too: site 3 is SIGKILLed at 1T and never restarts, so sites
// 1 and 2 commit the 5T submission on their own, and site 4, outside the
// roster, never sees it.
func TestLiveCrashedParticipantExcluded(t *testing.T) {
	nb := netBackend(t)
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Backend:  nb,
		Schedule: Schedule{CrashAt(1000, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(Txn{Sites: []proto.SiteID{1, 2, 3}, At: 5000, Payload: put("roster")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r.Sites[3].Crashed || r.Sites[3].Outcome != proto.None {
		t.Fatalf("crashed participant: %+v", r.Sites[3])
	}
	if !r.Decided() || r.Outcome() != proto.Commit {
		t.Fatalf("survivors should commit: outcome=%v blocked=%v", r.Outcome(), r.Blocked())
	}
	if s, ok := r.Sites[4]; ok {
		t.Errorf("site 4 outside the roster has an outcome: %+v", s)
	}
	snaps := nb.state().snaps
	if len(snaps) != 3 {
		t.Fatalf("snapshots from %d/3 live nodes", len(snaps))
	}
	for _, id := range []proto.SiteID{1, 2} {
		if got := string(snaps[int(id)]["roster"]); got != "v" {
			t.Errorf("site %d: roster = %q, want \"v\"", id, got)
		}
	}
	if _, have := snaps[4]["roster"]; have {
		t.Error("site 4 applied a transaction it was never invited to")
	}
}

// Inject is the dynamic counterpart of Schedule: heal an open partition
// mid-run and keep submitting on the same timeline.
func TestSimInjectHealAndContinue(t *testing.T) {
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Schedule: Schedule{PartitionAt(0, 3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r1, err := c.Submit(Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	// Partition up from t=0: no xact crosses, G1 aborts, G2 never starts.
	if r1.Outcome() != proto.Abort || !r1.Decided() {
		t.Fatalf("partitioned txn: outcome=%v blocked=%v", r1.Outcome(), r1.Blocked())
	}
	if err := c.Inject(HealAt(c.Now())); err != nil {
		t.Fatal(err)
	}
	r2, err := c.Submit(Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r2.Outcome() != proto.Commit || !r2.Decided() {
		t.Fatalf("post-heal txn: outcome=%v blocked=%v", r2.Outcome(), r2.Blocked())
	}
}

// The sim backend is a pure function of its inputs.
func TestSimDeterminism(t *testing.T) {
	run := func() []proto.Outcome {
		c, err := Open(Config{
			Sites:    5,
			Protocol: core.Protocol{TransientFix: true},
			Backend: NewSimBackend(SimOptions{
				Latency: simnet.Uniform{Lo: 200, Hi: 1000},
				Seed:    99,
			}),
			Schedule: Schedule{TransientPartitionAt(1500, 8000, 2, 5)},
			Votes: func(s proto.SiteID, tid proto.TxnID, _ []byte) bool {
				return !(s == 4 && tid%3 == 0)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.SubmitBatch(make([]Txn, 9)); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		var out []proto.Outcome
		for _, r := range c.Results() {
			out = append(out, r.Outcome())
			for i := 1; i <= 5; i++ {
				out = append(out, r.Sites[proto.SiteID(i)].Outcome)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOpenValidation(t *testing.T) {
	cases := map[string]Config{
		"sites":    {Sites: 1, Protocol: core.Protocol{}},
		"protocol": {Sites: 3},
		"schedule": {Sites: 3, Protocol: core.Protocol{},
			Schedule: Schedule{PartitionAt(100, 9)}},
		"emptyG2": {Sites: 3, Protocol: core.Protocol{},
			Schedule: Schedule{{At: 5, Kind: EvPartition}}},
		"healBeforeOnset": {Sites: 3, Protocol: core.Protocol{},
			Schedule: Schedule{TransientPartitionAt(100, 50, 3)}},
	}
	for name, cfg := range cases {
		if _, err := Open(cfg); err == nil {
			t.Errorf("%s: Open accepted bad config", name)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(Txn{ID: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Txn{ID: 7}); err == nil {
		t.Fatal("duplicate TID accepted")
	}
	if _, err := c.Submit(Txn{Master: 9}); err == nil {
		t.Fatal("out-of-range master accepted")
	}
	// Auto-assignment continues past explicit IDs.
	r, err := c.Submit(Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TID != 8 {
		t.Fatalf("auto TID = %d, want 8", r.TID)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Txn{}); err == nil {
		t.Fatal("submit after Close accepted")
	}
}

func TestScheduleCompile(t *testing.T) {
	s := Schedule{
		PartitionAt(100, 2),
		HealAt(500),
		TransientPartitionAt(900, 1200, 3),
		PartitionAt(2000, 2, 3),
		PartitionAt(3000, 4), // repartition: implicitly heals the one before
		CrashAt(50, 4),
		RecoverAt(4000, 4),
	}
	var cuts simnet.Cuts
	rest := s.compile(cuts.Set)
	// Four onsets, and heals at 500 (EvHeal), 1200 (transient) and 3000
	// (the repartition); the last partition stays open.
	if got, want := fmt.Sprint(cuts), "[{100 [2]} {500 []} {900 [3]} {1200 []} {2000 [2 3]} {3000 [4]}]"; got != want {
		t.Fatalf("cuts = %s, want %s", got, want)
	}
	if len(rest) != 2 || rest[0].Kind != EvCrash || rest[1].Kind != EvRecover {
		t.Fatalf("rest = %+v", rest)
	}
}

// A heal landing at or before a partition's onset must neutralize it, not
// leave it in force.
func TestHealAtOnsetNeutralizesPartition(t *testing.T) {
	var cuts simnet.Cuts
	Schedule{PartitionAt(100, 2), HealAt(100)}.compile(cuts.Set)
	if len(cuts.InForce(1<<40)) > 0 {
		t.Fatal("partition left open past its same-tick heal")
	}
	if cuts.Blocked(1, 2, 150) {
		t.Fatal("partition healed at its onset is still active")
	}

	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Inject(PartitionAt(1000, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(HealAt(500)); err != nil { // before the onset
		t.Fatal(err)
	}
	r, err := c.Submit(Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r.Outcome() != proto.Commit || !r.Decided() {
		t.Fatalf("neutralized partition still bit: outcome=%v blocked=%v",
			r.Outcome(), r.Blocked())
	}
}

// An injected repartition and heal write their edges to the trace as a
// scheduled partition's do: partition-off before partition-on at a
// repartition's tick, and partition-off at the heal.
func TestSimInjectedEdgesAreTraced(t *testing.T) {
	b := NewSimBackend(SimOptions{RecordTrace: true})
	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{}, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ev := range []Event{PartitionAt(1000, 3), PartitionAt(2000, 2), HealAt(3000)} {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.Submit(Txn{At: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r.Outcome() != proto.Commit || !r.Decided() {
		t.Fatalf("post-heal txn: outcome=%v blocked=%v", r.Outcome(), r.Blocked())
	}
	var edges []string
	for _, e := range b.Trace().Events() {
		if e.Kind == trace.PartitionOn || e.Kind == trace.PartitionOff {
			edges = append(edges, strings.TrimSpace(fmt.Sprintf("%d %s %s", e.At, e.Kind, e.Detail)))
		}
	}
	want := []string{"1000 partition-on G2=[3]", "2000 partition-off", "2000 partition-on G2=[2]", "3000 partition-off"}
	if !slices.Equal(edges, want) {
		t.Fatalf("partition edges = %q, want %q", edges, want)
	}
}

// A transaction submitted after a Wait that pruned earlier automata runs
// normally, and earlier results stay readable.
func TestSimReusableAcrossWaits(t *testing.T) {
	c, err := Open(Config{Sites: 3, Protocol: core.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rs []*TxnResult
	for i := 0; i < 3; i++ {
		r, err := c.Submit(Txn{At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		if r.Outcome() != proto.Commit || r.Sites[2].FinalState == "q" {
			t.Fatalf("txn %d after prune: %+v", r.TID, r.Sites[2])
		}
	}
	if st := c.Stats(); st.Committed != 3 {
		t.Fatalf("stats across waits: %v", st)
	}
}
