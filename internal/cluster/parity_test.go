package cluster

import (
	"fmt"
	"maps"
	"testing"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/protocol/quorum"
	"termproto/internal/sim"
)

// parityScenario is failure-free, so each transaction's outcome is fixed
// by the votes whatever the message timing: the "same outcomes where
// determinism allows" contract between the simulator and live daemons.
func parityScenario() []Txn {
	return []Txn{
		{Payload: put("p1")},                            // all-yes: must commit
		{Payload: put("p2"), Votes: NoAt(3)},            // a no vote: must abort
		{Payload: put("p3"), Master: 2},                 // different coordinator: must commit
		{Payload: put("p4"), Votes: NoAt(1)},            // master-side no: must abort
		{Payload: put("p5")},                            // all-yes again
		{Payload: put("p6"), Master: 4, Votes: NoAt(2)}, // rotated master, slave no
	}
}

func runParity(t *testing.T, backend Backend) []proto.Outcome {
	t.Helper()
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Backend:  backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.SubmitBatch(parityScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, c)
	out := make([]proto.Outcome, 0, len(rs))
	for _, r := range rs {
		if !r.Consistent() {
			t.Fatalf("%s backend: txn %d inconsistent", backend.Name(), r.TID)
		}
		out = append(out, r.Outcome())
	}
	return out
}

// TestSimLiveParity runs the identical deterministic-outcome scenario —
// rotating masters, a no vote at the master and at slaves — on the
// simulator and on live termnode daemons, and demands identical
// per-transaction outcomes.
func TestSimLiveParity(t *testing.T) {
	simOut := runParity(t, NewSimBackend(SimOptions{}))
	liveOut := runParity(t, netBackend(t))
	want := []proto.Outcome{
		proto.Commit, proto.Abort, proto.Commit, proto.Abort, proto.Commit, proto.Abort,
	}
	for i := range want {
		if simOut[i] != want[i] {
			t.Errorf("sim txn %d = %v, want %v", i+1, simOut[i], want[i])
		}
		if liveOut[i] != want[i] {
			t.Errorf("live txn %d = %v, want %v", i+1, liveOut[i], want[i])
		}
	}
}

// TestAutomataSpawnedParity: on a failure-free run with explicit
// participant rosters, the simulator's per-site automaton counters and
// the live daemons' answers agree exactly — the placement observable is
// backend-independent. A daemon answers for a transaction (Started)
// exactly when its automaton table holds one for it.
func TestAutomataSpawnedParity(t *testing.T) {
	scenario := []Txn{
		{Sites: []proto.SiteID{1, 2, 3}, Payload: put("s1")},
		{Sites: []proto.SiteID{2, 3, 4}, Master: 2, Payload: put("s2")},
		{Sites: []proto.SiteID{1, 2, 3, 4}, Payload: put("s3")},
		{Sites: []proto.SiteID{1, 4}, Payload: put("s4")},
	}
	want := map[proto.SiteID]int{1: 3, 2: 3, 3: 3, 4: 3}
	started := func(backend Backend) map[proto.SiteID]int {
		c, err := Open(Config{
			Sites:    4,
			Protocol: core.Protocol{TransientFix: true},
			Backend:  backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rs, err := c.SubmitBatch(scenario)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		n := map[proto.SiteID]int{}
		for _, r := range rs {
			for id, s := range r.Sites {
				if s.Started {
					n[id]++
				}
			}
		}
		return n
	}
	sb := NewSimBackend(SimOptions{})
	if got := started(sb); !maps.Equal(got, want) {
		t.Errorf("sim sites started %v, want %v", got, want)
	}
	if got := sb.AutomataSpawned(); !maps.Equal(got, want) {
		t.Errorf("sim spawned %v, want %v", got, want)
	}
	if got := started(netBackend(t)); !maps.Equal(got, want) {
		t.Errorf("live sites started %v, want %v", got, want)
	}
}

// A site learns of a transaction only from its MsgXact — the rule of the
// site.Table the simulator and every daemon step. Here site 3's xact
// bounces off a partition that heals at 1.5T, and on the simulator (every
// hop takes T) the master's abort crosses after the heal: it must not make
// site 3 a participant, just as on a daemon, where that abort bounces too.
func TestNeverLearnedSiteParity(t *testing.T) {
	heal := sim.Time(sim.DefaultT + sim.DefaultT/2)
	for _, p := range []proto.Protocol{cooperative.Protocol{}, quorum.Protocol{}} {
		r, _ := RunOne(Config{
			Sites: 3, Protocol: p,
			Schedule: Schedule{TransientPartitionAt(0, heal, 3)},
		}, SimOptions{}, Txn{})
		if got := *r.Sites[3]; got.Outcome != proto.None || got.FinalState != "q" || got.Started {
			t.Errorf("%s: site 3 = %+v, want none/q, not started", p.Name(), got)
		}
		for _, id := range []proto.SiteID{1, 2} {
			if got := *r.Sites[id]; got.Outcome != proto.Abort {
				t.Errorf("%s: site %d = %+v, want abort", p.Name(), id, got)
			}
		}
	}
}

// TestSimLivePartitionParity runs the same partitioned scenario on the
// simulator and on live daemons. Outcomes under a partition depend on
// timing on real processes, so the parity contract weakens to the safety
// properties: every transaction terminates at every live participating
// site, and no two sites ever disagree.
func TestSimLivePartitionParity(t *testing.T) {
	run := func(backend Backend) {
		c, err := Open(Config{
			Sites:    5,
			Protocol: core.Protocol{TransientFix: true},
			Backend:  backend,
			Schedule: Schedule{
				PartitionAt(2500, 4, 5),
				HealAt(10_000),
				TransientPartitionAt(15_000, 20_000, 2),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		batch := make([]Txn, 10)
		for i := range batch {
			batch[i] = Txn{At: sim.Time(i) * 1800, Payload: put(fmt.Sprintf("p%d", i))}
		}
		if _, err := c.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		mustVerify(t, c)
		st := c.Stats()
		if st.Inconsistent != 0 || st.Blocked != 0 || st.Committed+st.Aborted != len(batch) {
			t.Fatalf("%s backend stats: %v", backend.Name(), st)
		}
	}
	run(NewSimBackend(SimOptions{}))
	run(netBackend(t))
}
