package chaos

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Zipfian skew draws hot keys far more often than cold ones.
func TestZipfSkew(t *testing.T) {
	z := newZipf(100, 1.0)
	rng := sim.NewRand(1)
	hot, cold := 0, 0
	for i := 0; i < 10_000; i++ {
		switch d := z.draw(rng); {
		case d == 0:
			hot++
		case d >= 90:
			cold++
		}
	}
	if hot < 5*cold {
		t.Fatalf("zipf(1.0) not skewed: hot=%d cold(10 keys)=%d", hot, cold)
	}
}

// seedAccounts reports a seed the cluster did not commit instead of
// letting traffic start against accounts that were never written: a
// partition that cuts sites off before the seed decides aborts it.
func TestSeedAccountsReportsUncommittedSeed(t *testing.T) {
	seed := func(sched cluster.Schedule) (map[proto.SiteID]*engine.Engine, error) {
		engs := EnginesFor(nil, 4, 0, 0) // empty engines, as daemons start
		c, err := cluster.Open(cluster.Config{
			Sites: 4, Protocol: core.Protocol{TransientFix: true},
			Engines: engs, Schedule: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return engs, seedAccounts(c, 6, 100)
	}
	if engs, err := seed(nil); err != nil {
		t.Fatalf("fault-free seed: %v", err)
	} else if got := engs[4].GetInt(acct(5)); got != 100 {
		t.Fatalf("seeded balance %d, want 100", got)
	}
	engs, err := seed(cluster.Schedule{cluster.PartitionAt(sim.Time(sim.DefaultT/2), 3, 4)})
	if err == nil {
		t.Fatal("a seed cut off by a partition was reported as seeded")
	}
	t.Log(err)
	if _, ok := engs[1].Get(acct(0)); ok {
		t.Fatalf("aborted seed left %s at site 1 (err %v)", acct(0), err)
	}
}
