package cluster

import (
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/harness"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/protocol/quorum"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// parityScenario is a deterministic-outcome scenario: failure-free, so the
// per-transaction outcome is fully determined by the votes regardless of
// message timing — the "same outcomes where determinism allows" contract
// between backends.
func parityScenario(backend Backend) []Txn {
	return []Txn{
		{},                          // all-yes: must commit
		{Votes: NoAt(3)},            // a no vote: must abort
		{Master: 2},                 // different coordinator: must commit
		{Votes: NoAt(1)},            // master-side no: must abort
		{},                          // all-yes again
		{Master: 4, Votes: NoAt(2)}, // rotated master, slave no
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
	rs, err := c.SubmitBatch(parityScenario(backend))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("%s backend: %v", backend.Name(), err)
	}
	out := make([]proto.Outcome, 0, len(rs))
	for _, r := range rs {
		if !r.Consistent() {
			t.Fatalf("%s backend: txn %d inconsistent", backend.Name(), r.TID)
		}
		out = append(out, r.Outcome())
	}
	return out
}

// TestSimLiveParity runs the identical deterministic-outcome scenario on
// both backends and demands identical per-transaction outcomes.
func TestSimLiveParity(t *testing.T) {
	simOut := runParity(t, NewSimBackend(SimOptions{}))
	liveOut := runParity(t, NewLiveBackend(LiveOptions{T: 3 * time.Millisecond}))
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

// TestAutomataSpawnedParity: both backends expose per-site automaton
// instantiation counters, and on a failure-free run with explicit
// participant rosters they must agree exactly — the placement observable
// is backend-independent.
func TestAutomataSpawnedParity(t *testing.T) {
	scenario := []Txn{
		{Sites: []proto.SiteID{1, 2, 3}},
		{Sites: []proto.SiteID{2, 3, 4}, Master: 2},
		{Sites: []proto.SiteID{1, 2, 3, 4}},
		{Sites: []proto.SiteID{1, 4}},
	}
	want := map[proto.SiteID]int{1: 3, 2: 3, 3: 3, 4: 3}
	run := func(backend Backend, spawned func() map[proto.SiteID]int) {
		c, err := Open(Config{
			Sites:    4,
			Protocol: core.Protocol{TransientFix: true},
			Backend:  backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.SubmitBatch(scenario); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		got := spawned()
		for id, n := range want {
			if got[id] != n {
				t.Fatalf("%s backend spawned %v, want %v", backend.Name(), got, want)
			}
		}
	}
	sim := NewSimBackend(SimOptions{})
	run(sim, sim.AutomataSpawned)
	live := NewLiveBackend(LiveOptions{T: 3 * time.Millisecond})
	run(live, live.AutomataSpawned)
}

// A site learns of a transaction only from its MsgXact. Here site 3's
// xact bounces off a partition that heals at 1.5T, and on the simulator
// (every hop takes T) the master's abort crosses after the heal: it must
// not make site 3 a participant. harness.Run, the sim backend and the live
// backend — where the abort bounces too — agree that site 3 never learned
// of the transaction, and both simulator entry points send the same
// messages.
func TestNeverLearnedSiteParity(t *testing.T) {
	heal := sim.Time(sim.DefaultT + sim.DefaultT/2)
	for _, p := range []proto.Protocol{cooperative.Protocol{}, quorum.Protocol{}} {
		check := func(entry string, sites map[proto.SiteID]SiteOutcome) {
			t.Helper()
			if got := sites[3]; got.Outcome != proto.None || got.FinalState != "q" || got.Started {
				t.Errorf("%s %s: site 3 = %+v, want none/q, not started", p.Name(), entry, got)
			}
			for _, id := range []proto.SiteID{1, 2} {
				if got := sites[id]; got.Outcome != proto.Abort {
					t.Errorf("%s %s: site %d = %+v, want abort", p.Name(), entry, id, got)
				}
			}
		}
		r := harness.Run(harness.Options{
			N: 3, Protocol: p,
			Partition: &simnet.Partition{At: 0, Heal: heal, G2: simnet.G2Set(3)},
		})
		sites := map[proto.SiteID]SiteOutcome{}
		for id, s := range r.Sites {
			sites[id] = SiteOutcome{Outcome: s.Outcome, DecidedAt: s.DecidedAt, FinalState: s.FinalState, Started: s.Started}
		}
		check("harness.Run", sites)

		run := func(backend Backend) NetStats {
			c, err := Open(Config{
				Sites: 3, Protocol: p, Backend: backend,
				Schedule: Schedule{TransientPartitionAt(0, heal, 3)},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := c.Submit(Txn{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			sites := map[proto.SiteID]SiteOutcome{}
			for id, s := range res.Sites {
				sites[id] = *s
			}
			check(backend.Name(), sites)
			return c.Stats().Net
		}
		if st := run(NewSimBackend(SimOptions{})); st.MsgsSent != r.MsgsSent {
			t.Errorf("%s: sim backend sent %d messages, harness.Run %d", p.Name(), st.MsgsSent, r.MsgsSent)
		}
		run(NewLiveBackend(LiveOptions{T: 5 * time.Millisecond}))
	}
}

// TestSimLivePartitionParity runs the same partitioned scenario on both
// backends. Outcomes under a partition are timing-dependent on the live
// backend, so the parity contract weakens to the safety properties: every
// transaction terminates at every live participating site, and no two
// sites ever disagree.
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
			batch[i].At = sim.Time(i) * 1800
		}
		if _, err := c.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := c.Termination(); err != nil {
			t.Fatalf("%s backend violated termination: %v", backend.Name(), err)
		}
		st := c.Stats()
		if st.Inconsistent != 0 || st.Blocked != 0 || st.Committed+st.Aborted != len(batch) {
			t.Fatalf("%s backend stats: %v", backend.Name(), st)
		}
	}
	run(NewSimBackend(SimOptions{}))
	// A roomy T: the live model requires real delay + scheduling jitter to
	// stay within the declared bound, and instrumented builds (-race) add
	// milliseconds of jitter of their own.
	run(NewLiveBackend(LiveOptions{T: 8 * time.Millisecond}))
}
