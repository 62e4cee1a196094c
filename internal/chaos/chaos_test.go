package chaos

import (
	"reflect"
	"testing"
)

// A seed fully determines its scenario: generation is pure.
func TestFromSeedDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: scenarios differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

// Every family is reachable from the seed space.
func TestFamilyCoverage(t *testing.T) {
	got := map[Family]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		got[FromSeed(seed).Family] = true
	}
	for _, f := range Families() {
		if !got[f] {
			t.Errorf("family %s never generated in 64 seeds", f)
		}
	}
}

// Replays are bit-identical: the same seed twice yields the same trace,
// event for event — the property that makes `termchaos -replay` useful.
func TestRunDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r1, err := Run(FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Run(FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if len(r1.Events) != len(r2.Events) {
			t.Fatalf("seed %d: %d events vs %d on replay", seed, len(r1.Events), len(r2.Events))
		}
		for i := range r1.Events {
			if r1.Events[i] != r2.Events[i] {
				t.Fatalf("seed %d event %d differs:\n%+v\n%+v", seed, i, r1.Events[i], r2.Events[i])
			}
		}
		if !reflect.DeepEqual(r1.Snapshots, r2.Snapshots) {
			t.Fatalf("seed %d: final snapshots differ on replay", seed)
		}
	}
}

// The generated fault space is safe: every scenario in the corpus runs,
// terminates, and passes the full invariant suite. CI runs a much larger
// corpus through cmd/termchaos; this is the in-tree floor.
func TestCorpusNoViolations(t *testing.T) {
	n := uint64(400)
	if testing.Short() {
		n = 60
	}
	fams := map[Family]int{}
	for seed := uint64(1); seed <= n; seed++ {
		sc := FromSeed(seed)
		fams[sc.Family]++
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc, err)
		}
		if v := Verify(r); len(v) > 0 {
			t.Errorf("seed %d (%s): %d violations; first: %s", seed, sc, len(v), v[0])
		}
	}
	t.Logf("families: %v", fams)
}

// The four-phase substrate (Theorem 10) passes the same invariant suite on
// the corpus's fault space: the first 400 scenarios the generator draws
// with a non-2pc protocol, rerun under 4pc-termination. The draw itself is
// left alone, so the corpus and its replay digests do not move.
func TestCorpusFourPhaseNoViolations(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	txns := 0
	for seed := uint64(1); n > 0; seed++ {
		sc := FromSeed(seed)
		if sc.Protocol == "2pc" {
			continue
		}
		n--
		sc.Protocol = "4pc-termination"
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc, err)
		}
		txns += len(r.Results)
		if v := Verify(r); len(v) > 0 {
			t.Errorf("seed %d (%s): %d violations; first: %s", seed, sc, len(v), v[0])
		}
	}
	t.Logf("%d transactions", txns)
}

// Scenario.NetCompatible matches what the net backend accepts: full
// replication, no membership events.
func TestNetCompatible(t *testing.T) {
	anyCompat := false
	for seed := uint64(1); seed <= 100; seed++ {
		sc := FromSeed(seed)
		compat := sc.NetCompatible()
		if sc.Family == Migration || sc.Family == Stress {
			if compat {
				t.Errorf("seed %d: %s marked net-compatible", seed, sc.Family)
			}
		} else {
			anyCompat = true
		}
		if compat && sc.Shards > 0 {
			t.Errorf("seed %d: sharded scenario marked net-compatible", seed)
		}
	}
	if !anyCompat {
		t.Error("no net-compatible scenarios in 100 seeds")
	}
}
