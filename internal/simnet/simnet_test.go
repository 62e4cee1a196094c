package simnet

import (
	"fmt"
	"slices"
	"testing"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

type capture struct {
	delivered []proto.Msg
	returned  []proto.Msg
	at        []sim.Time
	sched     *sim.Scheduler
}

func (c *capture) Deliver(m proto.Msg) {
	c.delivered = append(c.delivered, m)
	c.at = append(c.at, c.sched.Now())
}
func (c *capture) Undeliverable(m proto.Msg) {
	c.returned = append(c.returned, m)
	c.at = append(c.at, c.sched.Now())
}

func build(t *testing.T, cfg Config, sites ...proto.SiteID) (*Network, map[proto.SiteID]*capture) {
	t.Helper()
	n := New(cfg)
	caps := make(map[proto.SiteID]*capture)
	for _, id := range sites {
		c := &capture{sched: cfg.Sched}
		caps[id] = c
		n.Register(id, c)
	}
	return n, caps
}

func TestDeliveryAtFixedLatency(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{40}}, 1, 2)
	n.Send(proto.Msg{TID: 7, From: 1, To: 2, Kind: proto.MsgXact})
	s.Run()
	c := caps[2]
	if len(c.delivered) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(c.delivered))
	}
	if c.at[0] != 40 {
		t.Fatalf("delivered at %d, want 40", c.at[0])
	}
	m := c.delivered[0]
	if m.Kind != proto.MsgXact || m.TID != 7 || m.From != 1 || m.To != 2 || m.Undeliverable {
		t.Fatalf("delivered message corrupted: %+v", m)
	}
}

// A delivered message carries the slack its delay left inside the bound:
// T − d, so that it could still have arrived at SentAt + T.
func TestDeliveryStampsSlack(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{40}}, 1, 2)
	s.At(15, sim.PriDeliver, func() { n.Send(proto.Msg{TID: 7, From: 1, To: 2, Kind: proto.MsgXact}) })
	s.Run()
	m := caps[2].delivered[0]
	if m.SentAt != 15 || m.Slack != 60 || caps[2].at[0]+sim.Time(m.Slack) != m.SentAt+100 {
		t.Fatalf("delivered at %d with SentAt %d, Slack %d; want 55, 15, 60", caps[2].at[0], m.SentAt, m.Slack)
	}
}

func TestLatencyClampedToT(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 50, Latency: Fixed{500}}, 1, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgYes})
	s.Run()
	if caps[2].at[0] != 50 {
		t.Fatalf("delivery at %d, want clamped to T=50", caps[2].at[0])
	}
}

func TestCrossPartitionBounceTiming(t *testing.T) {
	// Message sent at 0 with delay T=100, boundary at f=1.0, partition
	// active from 0: crossing attempt at 100 fails, UD returns at 200 = 2T.
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}}, 1, 2)
	n.Cut(0, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare})
	s.Run()
	c1 := caps[1]
	if len(c1.returned) != 1 {
		t.Fatalf("sender got %d UD returns, want 1", len(c1.returned))
	}
	if c1.at[0] != 200 {
		t.Fatalf("UD returned at %d, want 200 (= 2T)", c1.at[0])
	}
	if !c1.returned[0].Undeliverable {
		t.Fatal("returned copy not marked undeliverable")
	}
	if got := c1.returned[0].Kind; got != proto.MsgPrepare {
		t.Fatalf("returned kind = %v, want prepare", got)
	}
	if len(caps[2].delivered) != 0 {
		t.Fatal("separated destination received the message")
	}
}

func TestBoundaryFracHalvesReturnTime(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}, BoundaryFrac: 0.5}, 1, 2)
	n.Cut(0, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare})
	s.Run()
	if caps[1].at[0] != 100 {
		t.Fatalf("UD returned at %d, want 100 (= 2*f*d with f=0.5)", caps[1].at[0])
	}
}

func TestInFlightMessagePassesBoundaryBeforeOnset(t *testing.T) {
	// f=0.5: message sent at 0 with delay 100 crosses B at 50. Partition
	// starting at 60 is too late to stop it: delivered at 100.
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}, BoundaryFrac: 0.5}, 1, 2)
	n.Cut(60, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare})
	s.Run()
	if len(caps[2].delivered) != 1 || caps[2].at[0] != 100 {
		t.Fatalf("message should pass B before onset; delivered=%d", len(caps[2].delivered))
	}
}

func TestInFlightMessageCaughtByOnset(t *testing.T) {
	// f=1.0: crossing at 100; partition starts at 60 < 100: bounced.
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}}, 1, 2)
	n.Cut(60, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare})
	s.Run()
	if len(caps[2].delivered) != 0 {
		t.Fatal("message crossed an active boundary")
	}
	if len(caps[1].returned) != 1 {
		t.Fatal("no UD return")
	}
}

func TestHealAllowsCrossing(t *testing.T) {
	// Partition [10, 50); message sent at 60 crosses freely.
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{30}}, 1, 2)
	n.Cut(10, 2)
	n.Cut(50)
	s.At(60, sim.PriControl, func() {
		n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgProbe})
	})
	s.Run()
	if len(caps[2].delivered) != 1 || caps[2].at[0] != 90 {
		t.Fatalf("post-heal message not delivered normally: %v", caps[2].at)
	}
}

func TestMessageArrivingExactlyAtOnsetIsBlocked(t *testing.T) {
	// Crossing time X equals partition onset: Active(X) is inclusive of At,
	// so the message bounces. This pins the boundary-edge convention.
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}}, 1, 2)
	n.Cut(100, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgCommit})
	s.Run()
	if len(caps[2].delivered) != 0 {
		t.Fatal("message delivered at exact onset instant; convention is blocked")
	}
}

func TestMessageCrossingExactlyAtHealIsDelivered(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}}, 1, 2)
	n.Cut(10, 2)
	n.Cut(100)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgCommit})
	s.Run()
	if len(caps[2].delivered) != 1 {
		t.Fatal("message crossing exactly at heal instant should pass")
	}
}

func TestSameGroupUnaffected(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{25}}, 1, 2, 3)
	n.Cut(0, 3)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact})
	s.Run()
	if len(caps[2].delivered) != 1 || caps[2].at[0] != 25 {
		t.Fatal("same-group message disturbed by partition")
	}
}

func TestG2InternalTrafficUnaffected(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{25}}, 1, 2, 3)
	n.Cut(0, 2, 3)
	n.Send(proto.Msg{From: 2, To: 3, Kind: proto.MsgCommit})
	s.Run()
	if len(caps[3].delivered) != 1 {
		t.Fatal("G2-internal message blocked")
	}
}

func TestPessimisticModeDrops(t *testing.T) {
	s := sim.NewScheduler()
	rec := &trace.Recorder{}
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{100}, Mode: Pessimistic, Trace: rec}, 1, 2)
	n.Cut(0, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare})
	s.Run()
	if len(caps[1].returned) != 0 {
		t.Fatal("pessimistic mode returned a UD copy")
	}
	if len(caps[2].delivered) != 0 {
		t.Fatal("pessimistic mode delivered across B")
	}
	_, _, bounced, dropped := n.Stats()
	if bounced != 0 || dropped != 1 {
		t.Fatalf("stats bounced=%d dropped=%d, want 0/1", bounced, dropped)
	}
	if got := rec.CrossFailed("prepare"); got != 1 {
		t.Fatalf("trace CrossFailed(prepare) = %d, want 1", got)
	}
}

func TestCrashedSiteDropsInbound(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{10}}, 1, 2)
	n.CrashAt(2, 5)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact}) // arrives at 10 > 5
	s.Run()
	if len(caps[2].delivered) != 0 {
		t.Fatal("crashed site received a message")
	}
	if len(caps[1].returned) != 0 {
		t.Fatal("crash produced a UD return; site failure must look like loss")
	}
}

func TestCrashedSiteStillReceivesBeforeCrash(t *testing.T) {
	s := sim.NewScheduler()
	n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{10}}, 1, 2)
	n.CrashAt(2, 50)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact})
	s.Run()
	if len(caps[2].delivered) != 1 {
		t.Fatal("message before crash time was dropped")
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	s := sim.NewScheduler()
	rec := &trace.Recorder{}
	n, _ := build(t, Config{Sched: s, T: 100, Latency: Fixed{50}, Trace: rec}, 1, 2, 3)
	n.Cut(0, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare}) // bounces
	n.Send(proto.Msg{From: 1, To: 3, Kind: proto.MsgPrepare}) // delivers
	s.Run()
	if got := len(rec.Messages(trace.Send, "prepare")); got != 2 {
		t.Fatalf("trace sends = %d, want 2", got)
	}
	if got := rec.CrossDelivered("prepare"); got != 0 {
		t.Fatalf("CrossDelivered = %d, want 0", got)
	}
	if got := rec.CrossFailed("prepare"); got != 1 {
		t.Fatalf("CrossFailed = %d, want 1", got)
	}
	if got := len(rec.Messages(trace.Deliver, "prepare")); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
}

func TestSendPanicsOnSelfAndUnknown(t *testing.T) {
	s := sim.NewScheduler()
	n, _ := build(t, Config{Sched: s, T: 100}, 1, 2)
	for name, m := range map[string]proto.Msg{
		"self":    {From: 1, To: 1, Kind: proto.MsgXact},
		"unknown": {From: 1, To: 9, Kind: proto.MsgXact},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send %s did not panic", name)
				}
			}()
			n.Send(m)
		}()
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	s := sim.NewScheduler()
	n := New(Config{Sched: s})
	n.Register(1, HandlerFuncs{OnDeliver: func(proto.Msg) {}, OnUndeliverable: func(proto.Msg) {}})
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	n.Register(1, HandlerFuncs{OnDeliver: func(proto.Msg) {}, OnUndeliverable: func(proto.Msg) {}})
}

func TestPartitionPredicates(t *testing.T) {
	var p Cuts
	p.Set(10, 3, 4)
	p.Set(20)
	cases := []struct {
		t      sim.Time
		active bool
	}{{0, false}, {9, false}, {10, true}, {15, true}, {19, true}, {20, false}, {100, false}}
	for _, c := range cases {
		if got := len(p.InForce(c.t)) > 0; got != c.active {
			t.Errorf("Active(%d) = %v, want %v", c.t, got, c.active)
		}
	}
	if len(p.InForce(1<<40)) > 0 {
		t.Error("healing partition reported permanent")
	}
	var perm Cuts
	perm.Set(10, 3)
	if len(perm.InForce(1<<40)) == 0 {
		t.Error("permanent partition not reported permanent")
	}
	if !p.Straddles(1, 3) || p.Straddles(3, 4) || p.Straddles(1, 2) {
		t.Error("CrossPair wrong")
	}
	var none Cuts
	if len(none.InForce(5)) > 0 || none.Straddles(1, 2) || none.Blocked(1, 2, 5) {
		t.Error("nil partition must be inert")
	}
}

func TestUniformLatencyWithinBounds(t *testing.T) {
	r := sim.NewRand(3)
	u := Uniform{Lo: 10, Hi: 90}
	for i := 0; i < 1000; i++ {
		d := u.Delay(proto.Msg{From: 1, To: 2}, r)
		if d < 10 || d > 90 {
			t.Fatalf("Uniform delay %d out of bounds", d)
		}
	}
}

func TestPerPairLatency(t *testing.T) {
	pp := PerPair{Default: 30, Pairs: map[[2]proto.SiteID]sim.Duration{{1, 2}: 99}}
	if d := pp.Delay(proto.Msg{From: 1, To: 2}, nil); d != 99 {
		t.Fatalf("pair delay = %d, want 99", d)
	}
	if d := pp.Delay(proto.Msg{From: 2, To: 1}, nil); d != 30 {
		t.Fatalf("default delay = %d, want 30", d)
	}
}

func TestStatsCounters(t *testing.T) {
	s := sim.NewScheduler()
	n, _ := build(t, Config{Sched: s, T: 100, Latency: Fixed{10}}, 1, 2, 3)
	n.Cut(0, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact}) // bounce
	n.Send(proto.Msg{From: 1, To: 3, Kind: proto.MsgXact}) // deliver
	s.Run()
	sent, delivered, bounced, dropped := n.Stats()
	if sent != 2 || delivered != 1 || bounced != 1 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 2/1/1/0", sent, delivered, bounced, dropped)
	}
}

func TestDeterministicSequenceNumbers(t *testing.T) {
	run := func() []uint64 {
		s := sim.NewScheduler()
		n, caps := build(t, Config{Sched: s, T: 100, Latency: Fixed{10}}, 1, 2)
		for i := 0; i < 5; i++ {
			n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact, TID: proto.TxnID(i)})
		}
		s.Run()
		var seqs []uint64
		for _, m := range caps[2].delivered {
			seqs = append(seqs, m.Seq)
		}
		return seqs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sequence numbers not deterministic")
		}
	}
}

func TestPerKindLatency(t *testing.T) {
	pk := PerKind{
		Default: 100,
		Rules: []KindRule{
			{From: 1, To: 2, Kind: proto.MsgPrepare, D: 10},
			{Kind: proto.MsgProbe, D: 77},
			{From: 3, D: 55},
		},
	}
	cases := []struct {
		m    proto.Msg
		want sim.Duration
	}{
		{proto.Msg{From: 1, To: 2, Kind: proto.MsgPrepare}, 10},
		{proto.Msg{From: 1, To: 3, Kind: proto.MsgPrepare}, 100},
		{proto.Msg{From: 2, To: 1, Kind: proto.MsgProbe}, 77},
		{proto.Msg{From: 3, To: 1, Kind: proto.MsgAck}, 55},
		{proto.Msg{From: 2, To: 1, Kind: proto.MsgAck}, 100},
	}
	for _, c := range cases {
		if got := pk.Delay(c.m, nil); got != c.want {
			t.Errorf("Delay(%v) = %d, want %d", c.m, got, c.want)
		}
	}
	if got := pk.Delay(proto.Msg{From: 1, To: 2}, nil); got != 100 {
		t.Errorf("kind-less Delay = %d, want 100 (kind wildcard only)", got)
	}
}

func TestNetworkUsesPerKind(t *testing.T) {
	s := sim.NewScheduler()
	pk := PerKind{Default: 90, Rules: []KindRule{{Kind: proto.MsgYes, D: 15}}}
	n, caps := build(t, Config{Sched: s, T: 100, Latency: pk}, 1, 2)
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgYes})
	n.Send(proto.Msg{From: 1, To: 2, Kind: proto.MsgXact})
	s.Run()
	if caps[2].at[0] != 15 || caps[2].at[1] != 90 {
		t.Fatalf("per-kind delays = %v, want [15 90]", caps[2].at)
	}
}

// Every edge of the cut timeline writes its trace events at its instant,
// once: a cut superseded before its instant writes nothing, and a
// repartition writes partition-off, then partition-on, even to an equal set.
func TestCutEdgesTraced(t *testing.T) {
	s := sim.NewScheduler()
	rec := &trace.Recorder{}
	n, _ := build(t, Config{Sched: s, T: 100, Trace: rec}, 1, 2, 3)
	n.Cut(100, 2)
	n.Cut(100) // neutralized at its onset
	n.Cut(200, 3, 2)
	n.Cut(300, 2, 3)
	n.Cut(400)
	n.Cut(500)
	s.Run()
	var got []string
	for _, e := range rec.Events() {
		got = append(got, fmt.Sprintf("%d %s %s", e.At, e.Kind, e.Detail))
	}
	want := []string{
		"200 partition-on G2=[2 3]",
		"300 partition-off ", "300 partition-on G2=[2 3]",
		"400 partition-off ",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	if !n.Cuts().Blocked(1, 2, 350) || n.Cuts().Blocked(1, 2, 150) || n.Cuts().Blocked(2, 3, 350) {
		t.Fatal("timeline does not match the cuts set")
	}
}
