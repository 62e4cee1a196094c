package experiments

import (
	"fmt"
	"slices"

	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// E7Fig5Timeouts reproduces the Figure 5 timeout analysis: the master's 2T
// and the slaves' 3T intervals are sufficient (no failure-free run decides
// wrongly even at maximal latency) and tight (adversarial schedules push
// the waits arbitrarily close to the intervals).
func E7Fig5Timeouts() *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Fig. 5 — timeout intervals: master 2T, slave 3T",
		Columns: []string{"quantity", "paper interval", "measured max", "within"},
	}

	// Adversarial failure-free schedule: one slave learns of the
	// transaction immediately, the rest at the bound, so the fast slave
	// waits the longest for its prepare.
	lat := simnet.PerKind{
		Default: T,
		Rules:   []simnet.KindRule{{From: 1, To: 2, Kind: proto.MsgXact, D: 1}},
	}
	r, b := cluster.RunOne(cluster.Config{Sites: 4, Protocol: core.Protocol{}},
		cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
	tr := b.Trace()

	masterWait := func(send, recv string) sim.Duration {
		first, _ := tr.FirstTime(func(e trace.Event) bool {
			return e.Kind == trace.Send && e.MsgKind == send && e.From == 1
		})
		last, _ := tr.LastTime(func(e trace.Event) bool {
			return e.Kind == trace.Deliver && e.MsgKind == recv && e.To == 1
		})
		return sim.Duration(last - first)
	}
	w1 := masterWait("xact", "yes")
	p1 := masterWait("prepare", "ack")

	// Slave wait: from sending its yes to receiving its prepare.
	var slaveMax sim.Duration
	for s := 2; s <= 4; s++ {
		s := s
		sent, ok1 := tr.FirstTime(func(e trace.Event) bool {
			return e.Kind == trace.Send && e.MsgKind == "yes" && e.From == s
		})
		got, ok2 := tr.FirstTime(func(e trace.Event) bool {
			return e.Kind == trace.Deliver && e.MsgKind == "prepare" && e.To == s
		})
		if ok1 && ok2 && sim.Duration(got-sent) > slaveMax {
			slaveMax = sim.Duration(got - sent)
		}
	}

	committed := true
	for i := proto.SiteID(1); i <= 4; i++ {
		if r.Sites[i].Outcome != proto.Commit {
			committed = false
		}
	}

	t.row("master w1 wait (xact→last yes)", "2T", tUnits(w1), boolCell(w1 <= 2*T))
	t.row("master p1 wait (prepare→last ack)", "2T", tUnits(p1), boolCell(p1 <= 2*T))
	t.row("slave wait (yes→prepare)", "3T", tUnits(slaveMax), boolCell(slaveMax <= 3*T))
	t.Pass = committed && w1 <= 2*T && p1 <= 2*T && slaveMax <= 3*T &&
		slaveMax > 2*T // tightness: the adversarial schedule exceeds 2T
	t.notef("failure-free adversarial run committed everywhere = %v", committed)
	t.notef("slave wait %s > 2T shows 2T would be too short — 3T is needed (Fig. 5)", tUnits(slaveMax))
	return t
}

// E8Fig6MasterWindow reproduces Figure 6: the longest time between the
// master's first undeliverable prepare and the last probe it must still
// count is 5T, approached as the bounced prepare's delay shrinks. The
// paper's bound stands — slave 2's timed probe still lands that late — but
// the master no longer waits for it: it holds slave 2's ack, solicits its
// probe, and in this N = 3 construction that answer accounts for the last
// slave, so the master decides one round trip after it has both the first
// UD and the ack.
func E8Fig6MasterWindow(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Fig. 6 — master's probe-collection window closes by 5T",
		Columns: []string{"UD(prepare) return", "window (firstUD→last probe)",
			"master decided at (after first UD)", "≤5T", "verdict"},
	}
	t.Pass = true
	var maxWindow sim.Duration
	eps := []sim.Duration{1, 50, 125, 250, 500}
	if cfg.Quick {
		eps = []sim.Duration{1, 250}
	}
	for _, ep := range eps {
		lat := simnet.PerKind{
			Default: T,
			Rules:   []simnet.KindRule{{From: 1, To: 3, Kind: proto.MsgPrepare, D: ep}},
		}
		r, b := cluster.RunOne(cluster.Config{
			Sites: 3, Protocol: core.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(2*Tt+1, 3)},
		}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
		window, ok := scenario.FirstUDPrepareToLastProbe(b.Trace(), 1)
		if !ok || !r.Consistent() || len(r.Blocked()) > 0 {
			t.Pass = false
		}
		if window > maxWindow {
			maxWindow = window
		}
		firstUD, _ := b.Trace().FirstTime(func(e trace.Event) bool {
			return e.Kind == trace.Bounce && e.MsgKind == "prepare"
		})
		ack, _ := b.Trace().FirstTime(func(e trace.Event) bool {
			return e.Kind == trace.Deliver && e.MsgKind == "ack" && e.To == 1
		})
		decided := sim.Duration(r.Sites[1].DecidedAt - firstUD)
		t.row(fmt.Sprintf("2×%s after send", tUnits(ep)), tUnits(window), tUnits(decided),
			boolCell(window <= 5*T && decided <= window), verdict(r))
		// UD={3}, PB={2} covers N: solicit out, probe back, decide.
		if window > 5*T || decided > window || r.Sites[1].DecidedAt != max(firstUD, ack)+2*Tt {
			t.Pass = false
		}
	}
	t.notef("max window %s; the 5T timer of §5.3 always covers the last probe", tUnits(maxWindow))
	t.notef("the master decided one round trip after holding both the first UD and slave 2's ack: the solicited probe made UD ∪ PB = N")
	if maxWindow < 9*T/2 {
		t.Pass = false // the construction should approach 5T
	}
	return t
}

// E9Fig7SlaveWindow reproduces Figure 7: a slave that timed out in w
// receives its commit within 6T — approached by delaying the G2
// prepare-holder's progress as far as the timeouts allow.
func E9Fig7SlaveWindow(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Fig. 7 — commit reaches a w-timed-out slave within 6T",
		Columns: []string{"prepare_i delay", "site 4 wait after w-timeout", "≤6T", "verdict"},
	}
	t.Pass = true
	var maxWait sim.Duration
	ps := []sim.Duration{T / 2, 3 * T / 4, 9 * T / 10, T - 2}
	if cfg.Quick {
		ps = []sim.Duration{T / 2, T - 2}
	}
	for _, p := range ps {
		lat := simnet.PerKind{
			Default: T,
			Rules: []simnet.KindRule{
				{From: 1, To: 4, Kind: proto.MsgXact, D: 1}, // site 4 joins instantly
				{From: 1, To: 3, Kind: proto.MsgPrepare, D: p},
				{From: 3, To: 1, Kind: proto.MsgAck, D: 1}, // ack slips through B
			},
		}
		r, b := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: core.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(2*Tt+sim.Time(p)+2, 3, 4)},
		}, cluster.SimOptions{Latency: lat, RecordTrace: true}, cluster.Txn{})
		wait, entered := scenario.MaxWaitAfter(b.Trace(), "wt")
		if !entered || !r.Consistent() || len(r.Blocked()) > 0 {
			t.Pass = false
		}
		if wait > maxWait {
			maxWait = wait
		}
		if wait > 6*T {
			t.Pass = false
		}
		if r.Sites[4].Outcome != proto.Commit {
			t.Pass = false // the commit must beat the 6T abort
		}
		t.row(tUnits(p), tUnits(wait), boolCell(wait <= 6*T), verdict(r))
	}
	t.notef("max wait %s approaches the 6T bound; site 4 always commits before the 6T abort", tUnits(maxWait))
	if maxWait < 11*T/2 {
		t.Pass = false // the construction should approach 6T
	}
	return t
}

// E10Fig8WToC reproduces the Figure 8 argument: without the slave w→c
// transition, a G2 peer's commit broadcast is lost and consistency fails.
func E10Fig8WToC() *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Fig. 8 — the slave w→c transition is necessary",
		Columns: []string{"slave automaton", "site 3", "site 4", "verdict"},
	}
	lat := simnet.PerPair{
		Default: T,
		Pairs: map[[2]proto.SiteID]sim.Duration{
			{1, 3}: 200, {3, 1}: 300, {3, 4}: 100,
		},
	}
	run := func(p proto.Protocol) *cluster.TxnResult {
		r, _ := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: p,
			Schedule: cluster.Schedule{cluster.PartitionAt(2500, 3, 4)},
		}, cluster.SimOptions{Latency: lat}, cluster.Txn{})
		return r
	}
	fixed := run(core.Protocol{})
	broken := run(core.Protocol{DisableWToC: true})
	t.row("Fig. 8 (with w→c)", fixed.Sites[3].Outcome.String(), fixed.Sites[4].Outcome.String(), verdict(fixed))
	t.row("Fig. 3 (without)", broken.Sites[3].Outcome.String(), broken.Sites[4].Outcome.String(), verdict(broken))
	t.Pass = fixed.Consistent() && len(fixed.Blocked()) == 0 && !broken.Consistent()
	t.notef("site 4's only commit arrives from its G2 peer while site 4 is still in w")
	return t
}

// E11Fig9CaseBounds reproduces the Section 6 case table and the Figure 9
// bound: randomized transient and permanent partitions are classified into
// the §6 cases, and per case the maximum wait after a p-state timeout must
// respect the paper's bound (T, 4T, 5T — and 5T for case 3.2.2.2 under
// the transient fix).
func E11Fig9CaseBounds(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Fig. 9 + §6 — per-case wait bounds after a p-timeout",
		Columns: []string{"case", "runs", "max wait after pt", "paper bound", "within", "all consistent"},
	}
	type agg struct {
		runs       int
		maxWait    sim.Duration
		anyPt      bool
		consistent bool
	}
	cases := map[scenario.Case]*agg{}
	// Case 2.1 is the one that pins the master's solicit rule to "acked
	// slaves only": soliciting every non-UD slave lets a G2 slave whose ack
	// is still bouncing answer after a heal (PB, master aborts) and then
	// commit G2 on its UD(ack) — that variant reads "all consistent: no"
	// in the 2.1 row.
	rng := sim.NewRand(0xE11)
	runs := cfg.randomRuns() * 3
	var overallMax sim.Duration // any slave, any case except wedge-free 3.2.2.2
	for i := 0; i < runs; i++ {
		n := 3 + rng.Intn(3)
		var split []proto.SiteID
		for s := 2; s <= n; s++ {
			if rng.Bool() {
				split = append(split, proto.SiteID(s))
			}
		}
		if len(split) == 0 {
			split = []proto.SiteID{proto.SiteID(n)}
		}
		part := cluster.PartitionAt(sim.Time(rng.Int63n(int64(7*T))), split...)
		if rng.Intn(2) == 0 {
			part.Heal = part.At + 1 + sim.Time(rng.Int63n(int64(8*T)))
		}
		r, b := cluster.RunOne(cluster.Config{
			Sites: n, Protocol: core.Protocol{TransientFix: true},
			Schedule: cluster.Schedule{part},
		}, cluster.SimOptions{
			Latency:     simnet.Uniform{Lo: sim.Duration(T) / 3, Hi: T},
			Seed:        rng.Uint64(),
			RecordTrace: true,
		}, cluster.Txn{})
		c := scenario.Classify(b.Trace(), 1)
		a := cases[c]
		if a == nil {
			a = &agg{consistent: true}
			cases[c] = a
		}
		a.runs++
		if !r.Consistent() || len(r.Blocked()) > 0 {
			a.consistent = false
		}
		// The §6 per-case bounds concern the slaves in G2 (the partition
		// the termination protocol must self-organize); G1 slaves wait on
		// the master's 5T window, covered by the overall Fig. 9 bound.
		for _, w := range scenario.WaitsAfter(b.Trace(), "pt") {
			if !w.Decided {
				continue
			}
			d := w.Wait()
			if d > overallMax {
				overallMax = d
			}
			if slices.Contains(split, proto.SiteID(w.Site)) {
				a.anyPt = true
				if d > a.maxWait {
					a.maxWait = d
				}
			}
		}
	}
	t.Pass = true
	order := []scenario.Case{
		scenario.CaseNone, scenario.Case1, scenario.Case21, scenario.Case221,
		scenario.Case222, scenario.Case31, scenario.Case321,
		scenario.Case3221, scenario.Case3222,
	}
	for _, c := range order {
		a := cases[c]
		if a == nil {
			continue
		}
		mult, bounded := c.Bound()
		bound := fmt.Sprintf("%dT", mult)
		if !bounded {
			bound = "∞ → 5T (fix)"
			mult = 5 // with the transient fix
		}
		if mult == 0 {
			bound = "—"
			mult = 6 // no p-timeout expected; allow anything ≤ protocol max
		}
		waitStr := "—"
		within := true
		if a.anyPt {
			waitStr = tUnits(a.maxWait)
			within = a.maxWait <= sim.Duration(mult)*T
		}
		if !within || !a.consistent {
			t.Pass = false
		}
		t.row(string(c)+"", fmt.Sprintf("%d", a.runs), waitStr, bound,
			boolCell(within), boolCell(a.consistent))
	}
	if overallMax > 5*T {
		t.Pass = false
	}
	t.notef("%d randomized runs (permanent + transient) under termination+transient-fix", runs)
	t.notef("overall Fig. 9 bound: max wait after p-timeout over ALL slaves = %s ≤ 5T", tUnits(overallMax))
	return t
}

// E12TransientFix reproduces the Section 6 repair on the deterministic
// case 3.2.2.2 construction: the original protocol wedges the G2 slaves,
// the 5T-silence fix commits them at exactly 5T, and the master-side
// late-probe-reply extension (beyond the paper) terminates them sooner.
func E12TransientFix() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "§6 — case 3.2.2.2: transient-partition repair",
		Columns: []string{"variant", "blocked", "G2 wait after pt", "outcomes", "verdict"},
	}
	variants := []struct {
		name string
		p    proto.Protocol
	}{
		{"original §5.3", core.Protocol{}},
		{"§6 fix (5T→commit)", core.Protocol{TransientFix: true}},
		{"ext: master replies to late probes", core.Protocol{ReplyToLateProbes: true}},
	}
	results := make([]*cluster.TxnResult, len(variants))
	traces := make([]*trace.Recorder, len(variants))
	for i, v := range variants {
		r, b := cluster.RunOne(cluster.Config{
			Sites: 4, Protocol: v.p,
			Schedule: cluster.Schedule{cluster.TransientPartitionAt(4*Tt+1, 7*Tt, 3, 4)},
		}, cluster.SimOptions{RecordTrace: true}, cluster.Txn{})
		results[i], traces[i] = r, b.Trace()
		wait := "—"
		if w, entered := scenario.MaxWaitAfter(traces[i], "pt"); entered && w >= 0 {
			wait = tUnits(w)
		} else if entered {
			wait = "∞ (wedged)"
		}
		outs := fmt.Sprintf("%s/%s/%s/%s",
			r.Sites[1].Outcome, r.Sites[2].Outcome, r.Sites[3].Outcome, r.Sites[4].Outcome)
		t.row(v.name, fmt.Sprintf("%v", r.Blocked()), wait, outs, verdict(r))
	}
	orig, fix, ext := results[0], results[1], results[2]
	fixWait, _ := scenario.MaxWaitAfter(traces[1], "pt")
	extWait, _ := scenario.MaxWaitAfter(traces[2], "pt")
	t.Pass = len(orig.Blocked()) == 2 &&
		fix.Consistent() && len(fix.Blocked()) == 0 && fixWait == 5*T &&
		ext.Consistent() && len(ext.Blocked()) == 0 && extWait < 5*T
	t.notef("classified case: %s", scenario.Classify(traces[0], 1))
	t.notef("the fix decides after exactly 5T of silence; the extension after %s", tUnits(extWait))
	return t
}
