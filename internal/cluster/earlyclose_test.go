package cluster_test

import (
	"fmt"
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// windowEvidence replays the master's UD/PB window from the wire trace:
// when the first prepare bounced back to the master, and when — if ever
// within the following 5T — the bounces and the probes delivered since
// then accounted for every slave.
func windowEvidence(tr *trace.Recorder, n int) (openAt, completeAt sim.Time, opened, complete bool) {
	seen := map[int]bool{}
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.Bounce && e.MsgKind == "prepare" && e.From == 1:
			if !opened {
				openAt, opened = e.At, true
			}
			seen[e.To] = true
		case e.Kind == trace.Deliver && e.MsgKind == "probe" && e.To == 1 && opened:
			seen[e.From] = true
		default:
			continue
		}
		if e.At > openAt+5*Tt {
			break // past the expiry: the master no longer listens
		}
		if len(seen) == n-1 {
			return openAt, e.At, true, true
		}
	}
	return openAt, 0, opened, false
}

// acksOfNonUD reports whether the ack of every slave whose prepare did not
// bounce was delivered to the master, and when the last of them arrived.
func acksOfNonUD(tr *trace.Recorder, n int) (lastAck sim.Time, all bool) {
	need := n - 1
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.Bounce && e.MsgKind == "prepare" && e.From == 1:
			need--
		case e.Kind == trace.Deliver && e.MsgKind == "ack" && e.To == 1:
			need--
			lastAck = e.At
		}
	}
	return lastAck, need == 0
}

// Deterministic sweep of the early window close on the simulator: every
// non-trivial G2, the partition instant on a T/8 grid across the message
// rounds, permanent and healing after 1T…8T. Every hop takes T, or — second
// profile — site n's prepare takes T/2, so a cut can fall between two
// prepares' crossings: a G2 slave then holds a prepare, never probes, and
// the window must run out and commit. Every run stays consistent; the
// master decides exactly when its evidence is complete (aborting, strictly
// before first-UD + 5T) and at the expiry otherwise, never later. And it
// does not wait for the slaves' 3T timers to complete it: where the ack of
// every slave outside UD reached the master, each of them was solicited as
// soon as the master held both its ack and a bounce, so the decision falls
// within one round trip of the later of the first UD and the last ack.
func TestEarlyCloseSweep(t *testing.T) {
	variants := []struct {
		p      proto.Protocol
		rounds sim.Time // message rounds before the master's own commit
		fix    bool     // §6 fix: without it a healed slave may wedge in pt
	}{
		{core.Protocol{}, 4, false},
		{core.Protocol{TransientFix: true}, 4, true},
		{core.Protocol{FourPhase: true}, 6, false},
		{core.Protocol{FourPhase: true, TransientFix: true}, 6, true},
	}
	step := Tt / 8
	if testing.Short() {
		step = Tt / 2
	}
	for _, v := range variants {
		early, expired, solicited := 0, 0, 0
		for n := 3; n <= 5; n++ {
			skewed := simnet.PerKind{Default: T, Rules: []simnet.KindRule{
				{From: 1, To: proto.SiteID(n), Kind: proto.MsgPrepare, D: T / 2},
			}}
			for mask := 1; mask < 1<<(n-1); mask++ { // G2 ⊆ slaves, non-empty
				var split []proto.SiteID
				for s := 0; s < n-1; s++ {
					if mask&(1<<s) != 0 {
						split = append(split, proto.SiteID(s+2))
					}
				}
				for at := sim.Time(0); at <= (v.rounds+1)*Tt; at += step {
					for heal := sim.Time(0); heal <= 8; heal++ {
						for _, lat := range []simnet.Latency{simnet.Fixed{D: T}, skewed} {
							part := cluster.PartitionAt(at, split...)
							if heal > 0 {
								part.Heal = at + heal*Tt
							}
							r, b := cluster.RunOne(cluster.Config{Sites: n, Protocol: v.p, Schedule: cluster.Schedule{part}},
								cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
							ctx := fmt.Sprintf("%s n=%d G2=%v onset=%d heal=+%dT latency=%T",
								v.p.Name(), n, split, at, heal, lat)
							if !r.Consistent() {
								t.Fatalf("%s: INCONSISTENT\n%s", ctx, b.Trace().Dump())
							}
							if (heal == 0 || v.fix) && len(r.Blocked()) != 0 {
								t.Fatalf("%s: blocked %v\n%s", ctx, r.Blocked(), b.Trace().Dump())
							}
							openAt, completeAt, opened, complete := windowEvidence(b.Trace(), n)
							if !opened {
								continue
							}
							want := openAt + 5*Tt
							if complete {
								want = completeAt
							}
							if got := r.Sites[1].DecidedAt; got != want {
								t.Fatalf("%s: master decided at %d, want %d (first UD %d, evidence complete=%v)\n%s",
									ctx, got, want, openAt, complete, b.Trace().Dump())
							}
							if complete && r.Sites[1].Outcome != proto.Abort {
								t.Fatalf("%s: early close decided %v\n%s", ctx, r.Sites[1].Outcome, b.Trace().Dump())
							}
							if lastAck, all := acksOfNonUD(b.Trace(), n); all {
								if limit := max(openAt, lastAck) + 2*Tt; r.Sites[1].DecidedAt > limit {
									t.Fatalf("%s: master decided at %d, want ≤ %d: first UD %d, last ack %d, then one solicit round trip\n%s",
										ctx, r.Sites[1].DecidedAt, limit, openAt, lastAck, b.Trace().Dump())
								}
								solicited++
							}
							if complete && completeAt < openAt+5*Tt {
								early++
							} else {
								expired++
							}
						}
					}
				}
			}
		}
		if early == 0 || expired == 0 || solicited == 0 {
			t.Fatalf("%s: sweep is vacuous: %d early closes, %d expiries, %d fully acked windows",
				v.p.Name(), early, expired, solicited)
		}
		t.Logf("%s: %d early closes, %d windows ran to 5T; %d fully acked windows closed within a solicit round trip",
			v.p.Name(), early, expired, solicited)
	}
}
