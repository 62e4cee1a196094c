package simnet

import (
	"testing"
	"testing/quick"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Conservation: every message handed to the network is delivered, bounced,
// or dropped — exactly once — for arbitrary partition schedules, latencies
// and send times.
func TestMessageConservationProperty(t *testing.T) {
	f := func(seed uint64, onsetRaw, healRaw uint16, sendsRaw []uint16, pessimistic bool) bool {
		sched := sim.NewScheduler()
		rec := &trace.Recorder{}
		rng := sim.NewRand(seed)
		onset, heal := sim.Time(onsetRaw%8000), sim.Time(healRaw%12000)
		mode := Optimistic
		if pessimistic {
			mode = Pessimistic
		}
		n := New(Config{
			Sched: sched, T: 1000,
			Latency: Uniform{Lo: 1, Hi: 1000},
			Mode:    mode,
			Rand:    sim.NewRand(seed + 1),
			Trace:   rec,
		})
		n.Cut(onset, 3, 4)
		if heal > onset {
			n.Cut(heal)
		}
		sink := HandlerFuncs{OnDeliver: func(proto.Msg) {}, OnUndeliverable: func(proto.Msg) {}}
		ids := []proto.SiteID{1, 2, 3, 4}
		for _, id := range ids {
			n.Register(id, sink)
		}
		count := len(sendsRaw)
		if count > 60 {
			count = 60
		}
		for i := 0; i < count; i++ {
			at := sim.Time(sendsRaw[i] % 10000)
			from := ids[rng.Intn(4)]
			to := ids[rng.Intn(4)]
			if to == from {
				to = ids[(rng.Intn(3)+int(from))%4]
				if to == from {
					to = proto.SiteID(from%4 + 1)
				}
			}
			m := proto.Msg{From: from, To: to, Kind: proto.MsgCommit}
			if at < sched.Now() {
				at = sched.Now()
			}
			sched.At(at, sim.PriControl, func() { n.Send(m) })
		}
		sched.Run()
		sent, delivered, bounced, dropped := n.Stats()
		if sent != uint64(count) {
			return false
		}
		return delivered+bounced+dropped == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Timing bounds: forward delivery never exceeds T after the send, and an
// undeliverable return never exceeds 2T — the envelope the paper's entire
// timeout analysis rests on.
func TestDeliveryBoundsProperty(t *testing.T) {
	f := func(seed uint64, onsetRaw uint16) bool {
		sched := sim.NewScheduler()
		rec := &trace.Recorder{}
		const T = 1000
		n := New(Config{
			Sched: sched, T: T,
			Latency: Uniform{Lo: 1, Hi: T},
			Rand:    sim.NewRand(seed),
			Trace:   rec,
		})
		n.Cut(sim.Time(onsetRaw%6000), 2)
		sink := HandlerFuncs{OnDeliver: func(proto.Msg) {}, OnUndeliverable: func(proto.Msg) {}}
		n.Register(1, sink)
		n.Register(2, sink)
		rng := sim.NewRand(seed + 7)
		for i := 0; i < 40; i++ {
			at := sim.Time(rng.Int63n(8000))
			if at < sched.Now() {
				at = sched.Now()
			}
			from, to := proto.SiteID(1), proto.SiteID(2)
			if rng.Bool() {
				from, to = to, from
			}
			m := proto.Msg{From: from, To: to, Kind: proto.MsgProbe}
			sched.At(at, sim.PriControl, func() { n.Send(m) })
		}
		sched.Run()

		// Pair sends with their outcomes by sequence along the trace: for
		// each send at ts, the matching deliver must be ≤ ts+T and the
		// matching bounce ≤ ts+2T. With per-message Seq unavailable in
		// trace events, check the weaker global property per event kind:
		// every deliver/bounce has *some* send within the bound before it.
		sends := rec.Messages(trace.Send, "probe")
		check := func(ev trace.Event, bound sim.Duration) bool {
			for _, s := range sends {
				if s.From == ev.From && s.To == ev.To &&
					s.At <= ev.At && sim.Duration(ev.At-s.At) <= bound {
					return true
				}
			}
			return false
		}
		for _, e := range rec.Messages(trace.Deliver, "probe") {
			if !check(e, T) {
				return false
			}
		}
		for _, e := range rec.Messages(trace.Bounce, "probe") {
			if !check(e, 2*T) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Partition symmetry: whether a message crosses B depends only on the
// pair's group membership, never on direction.
func TestCrossPairSymmetryProperty(t *testing.T) {
	f := func(g2raw []uint8) bool {
		var g []proto.SiteID
		for _, v := range g2raw {
			g = append(g, proto.SiteID(v%8+1))
		}
		var p Cuts
		p.Set(0, g...)
		for a := proto.SiteID(1); a <= 8; a++ {
			for b := proto.SiteID(1); b <= 8; b++ {
				if p.Straddles(a, b) != p.Straddles(b, a) || p.Blocked(a, b, 0) != p.Blocked(b, a, 0) {
					return false
				}
				if a == b && (p.Straddles(a, b) || p.Blocked(a, b, 0)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
