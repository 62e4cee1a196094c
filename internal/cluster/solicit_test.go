package cluster_test

import (
	"fmt"
	"slices"
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// Randomized safety net under the master's solicit rule: 3–6 sites, a
// random G2, the onset anywhere across the message rounds, half the cuts
// healing within 8T, every hop's delay drawn per message — from [T/3, T],
// and from [T/50, T] so that an ack can overtake a sibling's prepare by a
// wide margin. Every run must stay consistent, and unblocked wherever the
// §6 fix or the cut's permanence promises it. The rule must actually have
// been at work: thousands of runs deliver a solicit, and in some of those
// the slave sits in G2.
//
// This is the test that catches the tempting simplification "solicit every
// slave not in UD": a G2 slave whose ack is still on its way back to it can
// then be reached after a heal, answer into PB (the master aborts), and
// commit G2 on its UD(ack) — about one split per 6000 runs here.
func TestSolicitRandomized(t *testing.T) {
	variants := []struct {
		p   proto.Protocol
		fix bool
	}{
		{core.Protocol{}, false},
		{core.Protocol{TransientFix: true}, true},
		{core.Protocol{FourPhase: true}, false},
		{core.Protocol{FourPhase: true, TransientFix: true}, true},
	}
	profiles := []simnet.Uniform{
		{Lo: sim.Duration(T) / 3, Hi: T},
		{Lo: sim.Duration(T) / 50, Hi: T},
	}
	runs := 7500 // × 4 variants × 2 profiles = 60 000
	if testing.Short() {
		runs = 750
	}
	for _, v := range variants {
		rng := sim.NewRand(0x5011c17)
		solicited, solicitedG2 := 0, 0
		for _, lat := range profiles {
			for i := 0; i < runs; i++ {
				n := 3 + rng.Intn(4)
				var split []proto.SiteID
				for s := 2; s <= n; s++ {
					if rng.Bool() {
						split = append(split, proto.SiteID(s))
					}
				}
				if len(split) == 0 {
					split = []proto.SiteID{proto.SiteID(2 + rng.Intn(n-1))}
				}
				part := cluster.PartitionAt(sim.Time(rng.Int63n(int64(7*T))), split...)
				if rng.Bool() {
					part.Heal = part.At + 1 + sim.Time(rng.Int63n(int64(8*T)))
				}
				seed := rng.Uint64()
				r, b := cluster.RunOne(cluster.Config{Sites: n, Protocol: v.p, Schedule: cluster.Schedule{part}},
					cluster.SimOptions{Latency: lat, Seed: seed, RecordTrace: true}, cluster.Txn{})
				ctx := fmt.Sprintf("%s n=%d G2=%v onset=%d heal=%d latency=%+v seed=%d",
					v.p.Name(), n, split, part.At, part.Heal, lat, seed)
				if !r.Consistent() {
					t.Fatalf("%s: INCONSISTENT\n%s", ctx, b.Trace().Dump())
				}
				if (part.Heal == 0 || v.fix) && len(r.Blocked()) != 0 {
					t.Fatalf("%s: blocked %v\n%s", ctx, r.Blocked(), b.Trace().Dump())
				}
				got, gotG2 := false, false
				for _, e := range b.Trace().Messages(trace.Deliver, "solicit") {
					got = true
					gotG2 = gotG2 || slices.Contains(split, proto.SiteID(e.To))
				}
				if got {
					solicited++
				}
				if gotG2 {
					solicitedG2++
				}
			}
		}
		t.Logf("%s: %d of %d runs delivered a solicit, %d of them to a G2 slave",
			v.p.Name(), solicited, 2*runs, solicitedG2)
		if solicited < 2*runs/15 || solicitedG2 == 0 {
			t.Fatalf("%s: the sweep barely exercises the solicit rule", v.p.Name())
		}
	}
}
