package cooperative_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

const T = sim.DefaultT

// traced keeps the trace a failure message dumps.
var traced = cluster.SimOptions{RecordTrace: true}

func TestCooperativeFailureFree(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7} {
		r, _ := cluster.RunOne(cluster.Config{Sites: n, Protocol: cooperative.Protocol{}}, cluster.SimOptions{}, cluster.Txn{})
		for id, s := range r.Sites {
			if s.Outcome != proto.Commit {
				t.Fatalf("n=%d site %d = %v, want commit", n, id, s.Outcome)
			}
		}
	}
}

func TestCooperativeNoVote(t *testing.T) {
	r, _ := cluster.RunOne(cluster.Config{Sites: 4, Protocol: cooperative.Protocol{}, Votes: proto.NoAt(3)}, cluster.SimOptions{}, cluster.Txn{})
	if !r.Consistent() || r.Sites[1].Outcome != proto.Abort {
		t.Fatalf("no-vote: consistent=%v outcome=%v", r.Consistent(), r.Sites[1].Outcome)
	}
}

// The protocol's purpose: master failure at ANY point must leave the
// surviving slaves consistent and decided (Skeen's nonblocking theorem
// for site failures).
func TestMasterCrashSweep(t *testing.T) {
	for crash := sim.Time(1); crash <= 6*sim.Time(T); crash += sim.Time(T) / 4 {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: cooperative.Protocol{},
			Schedule: cluster.Schedule{cluster.CrashAt(crash, 1)},
		}, traced, cluster.Txn{})
		if !r.Consistent() {
			t.Fatalf("master crash at %d: INCONSISTENT\n%s", crash, b.Trace().Dump())
		}
		// Every live slave must decide.
		for id := proto.SiteID(2); id <= 4; id++ {
			if s := r.Sites[id]; s.Started && s.Outcome == proto.None {
				t.Fatalf("master crash at %d: slave %d blocked in %s\n%s",
					crash, id, s.FinalState, b.Trace().Dump())
			}
		}
	}
}

// Master + one slave crash: the election must survive the loss of a
// potential coordinator too.
func TestMasterAndSlaveCrashSweep(t *testing.T) {
	for crash := sim.Time(1); crash <= 5*sim.Time(T); crash += sim.Time(T) / 2 {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 5, Protocol: cooperative.Protocol{},
			Schedule: cluster.Schedule{
				cluster.CrashAt(crash, 1),
				cluster.CrashAt(crash+sim.Time(T)/2, 2), // the would-be coordinator dies mid-election
			},
		}, traced, cluster.Txn{})
		if !r.Consistent() {
			t.Fatalf("crash at %d: INCONSISTENT\n%s", crash, b.Trace().Dump())
		}
		for id := proto.SiteID(3); id <= 5; id++ {
			if s := r.Sites[id]; s.Started && s.Outcome == proto.None {
				t.Fatalf("crash at %d: slave %d blocked in %s\n%s",
					crash, id, s.FinalState, b.Trace().Dump())
			}
		}
	}
}

// Decision correctness around the commit point: if the master crashes
// after some slave is prepared, the survivors commit; if it crashes before
// any prepare was delivered, they abort.
func TestCrashDecisionDirection(t *testing.T) {
	// Crash at 3T+100: prepares (sent 2T) were delivered at 3T → commit.
	r, b := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: cooperative.Protocol{},
		Schedule: cluster.Schedule{cluster.CrashAt(3*sim.Time(T)+100, 1)},
	}, traced, cluster.Txn{})
	for id := proto.SiteID(2); id <= 3; id++ {
		if got := r.Sites[id].Outcome; got != proto.Commit {
			t.Fatalf("post-prepare crash: slave %d = %v, want commit\n%s", id, got, b.Trace().Dump())
		}
	}

	// Crash at 1T+100: xacts delivered, votes in flight, no prepare ever
	// sent → abort.
	r2, b2 := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: cooperative.Protocol{},
		Schedule: cluster.Schedule{cluster.CrashAt(sim.Time(T)+100, 1)},
	}, traced, cluster.Txn{})
	for id := proto.SiteID(2); id <= 3; id++ {
		if got := r2.Sites[id].Outcome; got != proto.Abort {
			t.Fatalf("pre-prepare crash: slave %d = %v, want abort\n%s", id, got, b2.Trace().Dump())
		}
	}
}

// The contrast that motivates Huang & Li: cooperative termination is NOT
// safe under partitions — a separated slave group elects its own
// coordinator and can diverge from the master's side.
func TestCooperativeDivergesUnderPartition(t *testing.T) {
	diverged := false
	for at := sim.Time(0); at <= 6*sim.Time(T) && !diverged; at += sim.Time(T) / 8 {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: cooperative.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(at, 3, 4)},
		}, cluster.SimOptions{}, cluster.Txn{})
		if !r.Consistent() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("cooperative termination should diverge under some partition onset; " +
			"that failure is why the paper's termination protocol exists")
	}
}

func TestName(t *testing.T) {
	if (cooperative.Protocol{}).Name() != "3pc-cooperative" {
		t.Fatal("name")
	}
}

func TestCooperativeMasterLocalNoVote(t *testing.T) {
	r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: cooperative.Protocol{}, Votes: proto.NoAt(1)}, cluster.SimOptions{}, cluster.Txn{})
	if r.Sites[1].Outcome != proto.Abort || !r.Consistent() {
		t.Fatal("master local no-vote path wrong")
	}
}

// Crash the master mid-ack-collection: every slave holds a prepare, so
// the elected coordinator sees all-p reports and completes the commit.
func TestCooperativeCoordinatorCommitsAllPrepared(t *testing.T) {
	r, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: cooperative.Protocol{},
		Schedule: cluster.Schedule{cluster.CrashAt(3*sim.Time(sim.DefaultT)+1, 1)},
	}, traced, cluster.Txn{})
	if !r.Consistent() {
		t.Fatalf("inconsistent\n%s", b.Trace().Dump())
	}
	for id := proto.SiteID(2); id <= 4; id++ {
		if got := r.Sites[id].Outcome; got != proto.Commit {
			t.Fatalf("slave %d = %v, want commit (prepared states present)", id, got)
		}
	}
}

// Mixed w/p reports: partition (not crash) delays one slave's prepare
// forever while another holds one; the coordinator must send the missing
// prepare itself before committing. Construct with a slave whose prepare
// bounced but who can still hear the coordinator (same side).
func TestCooperativeMixedWPReports(t *testing.T) {
	// G2 = {3,4}: prepare_3 passes (fast), prepare_4 bounces. The G2
	// coordinator (site 3, in p) sees site 4 in w, sends it a prepare,
	// collects the ack and commits G2. G1 commits too (master + site 2
	// fully prepared... master times out in p1 without acks 3,4 — pure
	// 3PC master has no timeout decision here; site 2 elects and finds
	// master p1 → prepared → commit). Both sides commit: consistent.
	lat := simnet.PerKind{
		Default: sim.DefaultT,
		Rules:   []simnet.KindRule{{From: 1, To: 3, Kind: proto.MsgPrepare, D: 10}},
	}
	r, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: cooperative.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(2*sim.Time(sim.DefaultT)+20, 3, 4)},
	}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	if !r.Consistent() {
		t.Fatalf("inconsistent\n%s", b.Trace().Dump())
	}
	if got := r.Sites[4].Outcome; got != proto.Commit {
		t.Fatalf("site 4 = %v, want commit via the coordinator's prepare round\n%s",
			got, b.Trace().Dump())
	}
}

func TestCooperativeIgnoresUndeliverable(t *testing.T) {
	// The protocol predates the optimistic model: UD returns are inert.
	r, b := cluster.RunOne(cluster.Config{
		Sites: 3, Protocol: cooperative.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(1, 3)},
	}, traced, cluster.Txn{})
	// No panic, and the G1 side decides something.
	if r.Sites[2].Outcome == proto.None && r.Sites[2].Started {
		t.Fatalf("G1 slave undecided\n%s", b.Trace().Dump())
	}
}
