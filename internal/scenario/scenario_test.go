package scenario_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

const T = sim.DefaultT

// traced keeps the trace the classifier reads.
var traced = cluster.SimOptions{RecordTrace: true}

// --- synthetic classifier unit tests ---

func synth(events ...trace.Event) *trace.Recorder {
	r := &trace.Recorder{}
	for _, e := range events {
		r.Append(e)
	}
	return r
}

// plus returns a new recorder holding rec's events followed by more.
func plus(rec *trace.Recorder, more ...trace.Event) *trace.Recorder {
	return synth(append(append([]trace.Event(nil), rec.Events()...), more...)...)
}

func msg(k trace.EventKind, kind string, from, to int, cross bool) trace.Event {
	return trace.Event{Kind: k, MsgKind: kind, From: from, To: to, Cross: cross}
}

func TestClassifySynthetic(t *testing.T) {
	cases := []struct {
		name string
		rec  *trace.Recorder
		want scenario.Case
	}{
		{"no-cross-traffic", synth(msg(trace.Deliver, "xact", 1, 2, false)), scenario.CaseNone},
		{"nil-recorder", nil, scenario.CaseNone},
		{"case1-all-prepares-bounce", synth(
			msg(trace.Bounce, "prepare", 1, 3, true),
		), scenario.Case1},
		{"case1-no-prepares-at-all", synth(
			msg(trace.Bounce, "xact", 1, 3, true),
		), scenario.Case1},
		{"case2.1", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Bounce, "prepare", 1, 4, true),
			msg(trace.Bounce, "ack", 3, 1, true),
		), scenario.Case21},
		{"case2.2.1", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Bounce, "prepare", 1, 4, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Bounce, "probe", 3, 1, true),
		), scenario.Case221},
		{"case2.2.2", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Bounce, "prepare", 1, 4, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Deliver, "probe", 3, 1, true),
		), scenario.Case222},
		{"case3.1", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Bounce, "ack", 3, 1, true),
		), scenario.Case31},
		{"case3.2.1", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Deliver, "commit", 1, 3, true),
		), scenario.Case321},
		{"case3.2.2.1", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Bounce, "commit", 1, 3, true),
			msg(trace.Bounce, "probe", 3, 1, true),
		), scenario.Case3221},
		{"case3.2.2.2", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Bounce, "commit", 1, 3, true),
			msg(trace.Deliver, "probe", 3, 1, true),
		), scenario.Case3222},
		{"slave-commit-bounce-is-not-3.2.2", synth(
			msg(trace.Deliver, "prepare", 1, 3, true),
			msg(trace.Deliver, "ack", 3, 1, true),
			msg(trace.Deliver, "commit", 1, 3, true),
			msg(trace.Bounce, "commit", 3, 1, true), // slave broadcast, not master round
		), scenario.Case321},
	}
	for _, c := range cases {
		if got := scenario.Classify(c.rec, 1); got != c.want {
			t.Errorf("%s: Classify = %s, want %s", c.name, got, c.want)
		}
		if c.rec == nil {
			continue
		}
		// The master's solicits are not the case table's probes: a trace
		// that also holds a bounced and a delivered solicit — or a frame
		// named probe travelling master → slave — classifies as before.
		with := plus(c.rec,
			msg(trace.Bounce, "solicit", 1, 3, true),
			msg(trace.Deliver, "solicit", 1, 3, true),
			msg(trace.Bounce, "probe", 1, 3, true),
		)
		want := c.want
		if want == scenario.CaseNone {
			want = scenario.Case1 // the additions are cross traffic, and no prepare passed
		}
		if got := scenario.Classify(with, 1); got != want {
			t.Errorf("%s + solicits: Classify = %s, want %s", c.name, got, want)
		}
	}
}

func TestCaseBounds(t *testing.T) {
	for c, want := range map[scenario.Case]int{
		scenario.Case21: 1, scenario.Case31: 1, scenario.Case221: 4, scenario.Case3221: 4, scenario.Case222: 5,
	} {
		mult, bounded := c.Bound()
		if !bounded || mult != want {
			t.Errorf("case %s: Bound = %d,%v, want %d,true", c, mult, bounded, want)
		}
	}
	if _, bounded := scenario.Case3222.Bound(); bounded {
		t.Error("case 3.2.2.2 must be unbounded")
	}
}

func TestWaitsAfter(t *testing.T) {
	rec := synth(
		trace.Event{At: 100, Kind: trace.Transition, Site: 3, FromState: "p", ToState: "pt"},
		trace.Event{At: 150, Kind: trace.Transition, Site: 4, FromState: "p", ToState: "pt"},
		trace.Event{At: 400, Kind: trace.Decide, Site: 3, Outcome: "commit"},
	)
	ws := scenario.WaitsAfter(rec, "pt")
	if len(ws) != 2 {
		t.Fatalf("got %d waits, want 2", len(ws))
	}
	bysite := map[int]scenario.PhaseWait{}
	for _, w := range ws {
		bysite[w.Site] = w
	}
	if w := bysite[3]; !w.Decided || w.Wait() != 300 {
		t.Errorf("site 3 wait = %v decided=%v, want 300,true", w.Wait(), w.Decided)
	}
	if w := bysite[4]; w.Decided || w.Wait() != -1 {
		t.Errorf("site 4 should be undecided")
	}
	max, entered := scenario.MaxWaitAfter(rec, "pt")
	if !entered || max != 300 {
		t.Errorf("MaxWaitAfter = %d,%v, want 300,true", max, entered)
	}
	if _, entered := scenario.MaxWaitAfter(rec, "wt"); entered {
		t.Error("no site entered wt")
	}
}

// --- end-to-end: deterministic constructions of the §6 cases ---

// Case 3.2.2.2: all prepares and acks pass B, the master's commits are
// caught, and the heal lets the probes through to a master that has
// already decided. The original protocol wedges the G2 slaves forever;
// the §6 transient fix commits them after 5T of silence.
func TestCase3222TransientFix(t *testing.T) {
	part := cluster.Schedule{cluster.TransientPartitionAt(4*sim.Time(T)+1, 7*sim.Time(T), 3, 4)}

	// Original protocol: G2 slaves wedge in pt.
	orig, ob := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{}, Schedule: part}, traced, cluster.Txn{})
	if got := scenario.Classify(ob.Trace(), 1); got != scenario.Case3222 {
		t.Fatalf("classified %s, want 3.2.2.2\n%s", got, ob.Trace().Dump())
	}
	blocked := orig.Blocked()
	if len(blocked) != 2 || blocked[0] != 3 || blocked[1] != 4 {
		t.Fatalf("original protocol blocked = %v, want [3 4]", blocked)
	}
	if orig.Sites[1].Outcome != proto.Commit || orig.Sites[2].Outcome != proto.Commit {
		t.Fatal("G1 should have committed")
	}

	// Transient fix: everyone commits; the G2 slaves wait exactly 5T after
	// their p-timeout.
	fixed, fb := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{TransientFix: true}, Schedule: part}, traced, cluster.Txn{})
	if !fixed.Consistent() || len(fixed.Blocked()) != 0 {
		t.Fatalf("transient fix: consistent=%v blocked=%v", fixed.Consistent(), fixed.Blocked())
	}
	for id := proto.SiteID(1); id <= 4; id++ {
		if fixed.Sites[id].Outcome != proto.Commit {
			t.Fatalf("site %d = %v, want commit", id, fixed.Sites[id].Outcome)
		}
	}
	max, entered := scenario.MaxWaitAfter(fb.Trace(), "pt")
	if !entered {
		t.Fatal("no site entered pt")
	}
	if max != 5*T {
		t.Fatalf("wait after p-timeout = %d, want exactly 5T=%d", max, 5*T)
	}
}

// The ReplyToLateProbes extension repairs case 3.2.2.2 from the master
// side: the probe reaching the decided master is answered, so the slave
// terminates well before the 5T silence bound.
func TestCase3222LateProbeReplyExtension(t *testing.T) {
	r, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: core.Protocol{ReplyToLateProbes: true},
		Schedule: cluster.Schedule{cluster.TransientPartitionAt(4*sim.Time(T)+1, 7*sim.Time(T), 3, 4)},
	}, traced, cluster.Txn{})
	if !r.Consistent() || len(r.Blocked()) != 0 {
		t.Fatalf("extension: consistent=%v blocked=%v", r.Consistent(), r.Blocked())
	}
	max, entered := scenario.MaxWaitAfter(b.Trace(), "pt")
	if !entered {
		t.Fatal("no site entered pt")
	}
	if max >= 5*T {
		t.Fatalf("wait = %d, want < 5T with master replies", max)
	}
}

// Case 2.2.1 constructed deterministically (see the timing walk-through in
// the comments): some prepares pass, the G2 prepare-holder's ack passes,
// its probe bounces, and everyone commits via the UD(probe) path.
func TestCase221Deterministic(t *testing.T) {
	lat := simnet.PerPair{
		Default: T,
		Pairs: map[[2]proto.SiteID]sim.Duration{
			{1, 3}: 500, // prepare to 3 crosses at 2500, before onset
			{3, 1}: 100, // ack from 3 crosses at 2600, before onset
			{3, 4}: 1000,
		},
	}
	r, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: core.Protocol{},
		Schedule: cluster.Schedule{cluster.PartitionAt(2800, 3, 4)},
	}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	if got := scenario.Classify(b.Trace(), 1); got != scenario.Case221 {
		t.Fatalf("classified %s, want 2.2.1\n%s", got, b.Trace().Dump())
	}
	if !r.Consistent() || len(r.Blocked()) != 0 {
		t.Fatalf("case 2.2.1: consistent=%v blocked=%v", r.Consistent(), r.Blocked())
	}
	for id := proto.SiteID(1); id <= 4; id++ {
		if r.Sites[id].Outcome != proto.Commit {
			t.Fatalf("site %d = %v, want commit (prepare crossed B)", id, r.Sites[id].Outcome)
		}
	}
	if max, entered := scenario.MaxWaitAfter(b.Trace(), "pt"); entered && max > 4*T {
		t.Fatalf("case 2.2.1 wait %d exceeds paper bound 4T", max)
	}
}

// Case 2.2.2 constructed deterministically: prepare_4 bounces, ack_3
// crosses after the heal, site 3's probe crosses post-heal too, and the
// master's N−UD = PB test correctly aborts everyone.
func TestCase222Deterministic(t *testing.T) {
	lat := simnet.PerPair{
		Default: T,
		Pairs: map[[2]proto.SiteID]sim.Duration{
			{1, 3}: 500, // prepare to 3 crosses at 2500 < onset
		},
	}
	r, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: core.Protocol{},
		Schedule: cluster.Schedule{cluster.TransientPartitionAt(2700, 3400, 3, 4)},
	}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	if got := scenario.Classify(b.Trace(), 1); got != scenario.Case222 {
		t.Fatalf("classified %s, want 2.2.2\n%s", got, b.Trace().Dump())
	}
	if !r.Consistent() || len(r.Blocked()) != 0 {
		t.Fatalf("case 2.2.2: consistent=%v blocked=%v\n%s", r.Consistent(), r.Blocked(), b.Trace().Dump())
	}
	if max, entered := scenario.MaxWaitAfter(b.Trace(), "pt"); entered && max > 5*T {
		t.Fatalf("case 2.2.2 wait %d exceeds paper bound 5T", max)
	}
}

// Transient sweep: for every heal time, the transient-fixed protocol is
// consistent and nonblocking (Theorem 9 extended by §6).
func TestTransientSweep(t *testing.T) {
	for onset := sim.Time(0); onset <= 6*sim.Time(T); onset += sim.Time(T) / 2 {
		for heal := onset + 1; heal <= onset+8*sim.Time(T); heal += sim.Time(T) {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{TransientFix: true},
				Schedule: cluster.Schedule{cluster.TransientPartitionAt(onset, heal, 3, 4)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("onset %d heal %d: INCONSISTENT\n%s", onset, heal, b.Trace().Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("onset %d heal %d: blocked %v\n%s", onset, heal, r.Blocked(), b.Trace().Dump())
			}
		}
	}
}

// The original protocol under transient partitions: any blocked run must
// classify as case 3.2.2.2 — the paper's claim that the original protocol
// works in all other cases.
func TestOriginalProtocolBlocksOnlyInCase3222(t *testing.T) {
	for onset := sim.Time(0); onset <= 6*sim.Time(T); onset += sim.Time(T) / 4 {
		for _, healDelta := range []sim.Time{1, sim.Time(T), 3 * sim.Time(T), 6 * sim.Time(T)} {
			r, b := cluster.RunOne(cluster.Config{
				Sites: 4, Protocol: core.Protocol{},
				Schedule: cluster.Schedule{cluster.TransientPartitionAt(onset, onset+healDelta, 3, 4)},
			}, traced, cluster.Txn{})
			if !r.Consistent() {
				t.Fatalf("onset %d heal +%d: INCONSISTENT\n%s", onset, healDelta, b.Trace().Dump())
			}
			if len(r.Blocked()) > 0 {
				if got := scenario.Classify(b.Trace(), 1); got != scenario.Case3222 {
					t.Fatalf("onset %d heal +%d: blocked in case %s, only 3.2.2.2 may block\n%s",
						onset, healDelta, got, b.Trace().Dump())
				}
			}
		}
	}
}

// FirstUDPrepareToLastProbe measures the Fig. 6 window; validated on the
// deterministic case 2.2.2 construction where both events exist.
func TestFig6WindowMeasure(t *testing.T) {
	lat := simnet.PerPair{
		Default: T,
		Pairs:   map[[2]proto.SiteID]sim.Duration{{1, 3}: 500},
	}
	_, b := cluster.RunOne(cluster.Config{
		Sites: 4, Protocol: core.Protocol{},
		Schedule: cluster.Schedule{cluster.TransientPartitionAt(2700, 3400, 3, 4)},
	}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	span, ok := scenario.FirstUDPrepareToLastProbe(b.Trace(), 1)
	if !ok {
		t.Fatal("no UD(prepare) in a case 2.2.2 run")
	}
	if span <= 0 || span > 5*T {
		t.Fatalf("Fig. 6 window = %d, want in (0, 5T]", span)
	}
	if _, ok := scenario.FirstUDPrepareToLastProbe(&trace.Recorder{}, 1); ok {
		t.Fatal("empty trace should report no window")
	}
	// A solicit is master → slave and is no probe, delivered or bounced
	// however late: the window still ends at the last slave → master probe.
	late := b.Trace().Events()[b.Trace().Len()-1].At + sim.Time(T)
	with := plus(b.Trace(),
		trace.Event{At: late, Kind: trace.Deliver, MsgKind: "solicit", From: 1, To: 2},
		trace.Event{At: late, Kind: trace.Bounce, MsgKind: "solicit", From: 1, To: 3, Cross: true},
		trace.Event{At: late, Kind: trace.Deliver, MsgKind: "probe", From: 1, To: 2},
	)
	if got, _ := scenario.FirstUDPrepareToLastProbe(with, 1); got != span {
		t.Fatalf("Fig. 6 window with trailing solicits = %d, want %d", got, span)
	}
}
