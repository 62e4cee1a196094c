package proto_test

import (
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
	"termproto/internal/sim"
)

func TestWindowSets(t *testing.T) {
	slaves := []proto.SiteID{2, 3, 4}
	var w proto.Window
	if w.Open() {
		t.Fatal("zero Window must be closed")
	}
	if !w.Bounced(4) || !w.Open() {
		t.Fatal("first bounce must open the window")
	}
	if w.Complete(slaves) || w.Verdict(slaves) != proto.Commit {
		t.Fatal("UD={4}, PB=∅: incomplete, and 2,3 silent reads as commit")
	}
	w.Probed(2)
	if w.Bounced(3) {
		t.Fatal("second bounce must not reopen the window")
	}
	if w.UD().String() != "{3 4}" || w.PB().String() != "{2}" {
		t.Fatalf("UD=%s PB=%s", w.UD(), w.PB())
	}
	if !w.Complete(slaves) || w.Verdict(slaves) != proto.Abort {
		t.Fatal("UD={3,4}, PB={2} covers N: abort, final")
	}
	// Outside the link model (a frame both returned and answered) the sets
	// overlap; they never shrink, so the commit verdict is final too.
	w.Probed(3)
	if !w.Complete(slaves) || w.Verdict(slaves) != proto.Commit {
		t.Fatal("overlapping UD and PB can never satisfy N − UD = PB")
	}
	w.Close()
	if w.Open() {
		t.Fatal("Close must end the collection")
	}
}

// paperVerdict is §5.3 p1(2) verbatim, evaluated on the sets the 5T expiry
// would see.
func paperVerdict(slaves []proto.SiteID, ud, pb proto.SiteSet) proto.Outcome {
	if proto.NewSiteSet(slaves...).Minus(ud).Equal(pb) {
		return proto.Abort
	}
	return proto.Commit
}

// The early close is a pure timing rewrite of §5.3 p1(2), for every master
// built on proto.Window. Each slave contributes at most one of
// {UD(prepare), probe} (delivered or returned, never both) or stays
// silent, in random arrival order. A master that decides before the expiry
// must decide what the paper's rule gives on the final sets — and may do
// so only on the event that accounts for the last slave; with any slave
// silent it must sit in p1u until OnTimeout.
func TestEarlyCloseMatchesPaperRule(t *testing.T) {
	protocols := []proto.Protocol{
		core.Protocol{}, core.Protocol{TransientFix: true}, core.Protocol{FourPhase: true},
	}
	const ud, probe, silent = 0, 1, 2
	for _, p := range protocols {
		rng := sim.NewRand(17)
		for nSlaves := 2; nSlaves <= 6; nSlaves++ {
			for trial := 0; trial < 300; trial++ {
				env := prototest.NewEnv(1, nSlaves+1)
				slaves := env.Slaves()
				m := p.NewMaster(env.Cfg)
				m.Start(env)
				for _, kind := range []proto.Kind{proto.MsgYes, proto.MsgPreAck} {
					for _, s := range slaves {
						m.OnMsg(env, env.Msg(s, kind))
					}
				}
				if m.State() != "p1" {
					t.Fatalf("%s: state = %s, want p1", p.Name(), m.State())
				}

				// One slave's bounce opens the window; the rest draw a role.
				role := make(map[proto.SiteID]int, nSlaves)
				first := slaves[rng.Intn(nSlaves)]
				finalUD, finalPB := proto.NewSiteSet(first), proto.NewSiteSet()
				var order []proto.SiteID
				allAccounted := true
				for _, s := range slaves {
					if s == first {
						continue
					}
					switch role[s] = rng.Intn(3); role[s] {
					case ud:
						finalUD.Add(s)
					case probe:
						finalPB.Add(s)
					case silent:
						allAccounted = false
						continue
					}
					order = append(order, s)
				}
				for i := len(order) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
				order = append([]proto.SiteID{first}, order...)
				want := paperVerdict(slaves, finalUD, finalPB)
				ctx := fmt.Sprintf("%s n=%d trial=%d UD=%s PB=%s order=%v",
					p.Name(), nSlaves, trial, finalUD, finalPB, order)

				for i, s := range order {
					if env.Decision != proto.None {
						t.Fatalf("%s: decided before event %d, slaves still unaccounted for", ctx, i)
					}
					if role[s] == probe {
						m.OnMsg(env, env.Msg(s, proto.MsgProbe))
					} else {
						m.OnUndeliverable(env, env.UD(s, proto.MsgPrepare))
					}
				}
				if allAccounted {
					if env.Decision != proto.Abort || want != proto.Abort {
						t.Fatalf("%s: decision %v (paper rule %v), want an early abort", ctx, env.Decision, want)
					}
					if env.TimerActive || env.CountSent(proto.MsgAbort) != nSlaves {
						t.Fatalf("%s: early close must stop the timer and broadcast abort", ctx)
					}
					continue
				}
				if m.State() != "p1u" || env.Decision != proto.None || !env.TimerActive {
					t.Fatalf("%s: state=%s decision=%v: a silent slave must keep the window open",
						ctx, m.State(), env.Decision)
				}
				m.OnTimeout(env)
				if env.Decision != want {
					t.Fatalf("%s: 5T expiry decided %v, paper rule gives %v", ctx, env.Decision, want)
				}
			}
		}
	}
}

func TestWindowSolicit(t *testing.T) {
	var w proto.Window
	acked := proto.NewSiteSet(2, 3)
	if got := w.Solicit(acked); got != nil {
		t.Fatalf("closed window solicits %v", got)
	}
	w.Bounced(5)
	w.Probed(3)
	if got := fmt.Sprint(w.Solicit(acked)); got != "[2]" {
		t.Fatalf("Solicit = %s, want [2]: 3 is in PB, 4 sent no ack, 5 is in UD", got)
	}
	acked.Add(4)
	acked.Add(5) // outside the link model: acked and bounced
	if got := fmt.Sprint(w.Solicit(acked)); got != "[4]" {
		t.Fatalf("Solicit = %s, want [4]: each slave is asked once, UD never", got)
	}
	if got := w.Solicit(acked); got != nil {
		t.Fatalf("Solicit = %v, want nothing new", got)
	}
}

// windowProtocols are the masters and slaves built on proto.Window: core's
// automaton over both substrates.
var windowProtocols = []proto.Protocol{
	core.Protocol{}, core.Protocol{TransientFix: true},
	core.Protocol{FourPhase: true}, core.Protocol{FourPhase: true, TransientFix: true},
}

// masterInP1 starts a master and feeds it every vote (and, for 4PC, every
// preack), leaving it in p1 with the prepares out and no ack in yet.
func masterInP1(t *testing.T, p proto.Protocol, env *prototest.Env) proto.Node {
	t.Helper()
	m := p.NewMaster(env.Cfg)
	m.Start(env)
	for _, kind := range []proto.Kind{proto.MsgYes, proto.MsgPreAck} {
		for _, s := range env.Slaves() {
			m.OnMsg(env, env.Msg(s, kind))
		}
	}
	if m.State() != "p1" {
		t.Fatalf("%s: state = %s, want p1", p.Name(), m.State())
	}
	env.ClearSent()
	return m
}

// solicitsTo counts the solicits recorded so far per destination.
func solicitsTo(env *prototest.Env) map[proto.SiteID]int {
	out := map[proto.SiteID]int{}
	for _, m := range env.Sent {
		if m.Kind == proto.MsgSolicit {
			out[m.To]++
		}
	}
	return out
}

// The ack condition, which is load-bearing (see proto.Window): under any
// interleaving of acks, bounces and probes the master solicits a slave at
// most once, only while the window is open, and never a slave whose ack it
// does not hold at that moment — not before the window opens, not at the
// opening, not later. An ack that arrives while the window is open, from a
// slave not yet accounted for, is answered by exactly one solicit at once.
func TestMasterSolicitsOnlyAckedSlaves(t *testing.T) {
	const ack, bounce, probe = 0, 1, 2
	for _, p := range windowProtocols {
		rng := sim.NewRand(23)
		solicited := 0
		for trial := 0; trial < 2000; trial++ {
			nSlaves := 2 + rng.Intn(5)
			env := prototest.NewEnv(1, nSlaves+1)
			m := masterInP1(t, p, env)
			slaves := env.Slaves()
			acked, bounced, accounted := proto.NewSiteSet(), proto.NewSiteSet(), proto.NewSiteSet()
			ctx := fmt.Sprintf("%s trial %d n=%d", p.Name(), trial, nSlaves)
			// Leave at least one slave silent so that neither all acks nor
			// complete evidence ends the run early.
			silent := slaves[rng.Intn(nSlaves)]
			for step := 0; step < 4*nSlaves; step++ {
				j := slaves[rng.Intn(nSlaves)]
				if j == silent {
					continue
				}
				before := solicitsTo(env)
				open := m.State() == "p1u"
				kind := rng.Intn(3)
				switch kind {
				case ack:
					m.OnMsg(env, env.Msg(j, proto.MsgAck))
					acked.Add(j)
				case bounce:
					if acked.Has(j) || accounted.Has(j) {
						continue // delivered or returned, never both
					}
					m.OnUndeliverable(env, env.UD(j, proto.MsgPrepare))
					bounced.Add(j)
					accounted.Add(j)
				case probe:
					if !open || bounced.Has(j) {
						continue // only a prepare-holder probes; its ack may still be under way
					}
					m.OnMsg(env, env.Msg(j, proto.MsgProbe))
					accounted.Add(j)
				}
				after := solicitsTo(env)
				for _, s := range slaves {
					switch {
					case after[s] > 1:
						t.Fatalf("%s: slave %d solicited %d times", ctx, s, after[s])
					case after[s] > 0 && !acked.Has(s):
						t.Fatalf("%s: solicited slave %d without holding its ack (acks %s)", ctx, s, acked)
					case after[s] > before[s] && m.State() != "p1u":
						t.Fatalf("%s: solicit to %d outside the window (state %s)", ctx, s, m.State())
					case after[s] > before[s] && accounted.Has(s):
						t.Fatalf("%s: solicit to %d, already in UD ∪ PB", ctx, s)
					}
				}
				if kind == ack && open && !accounted.Has(j) && after[j] != 1 {
					t.Fatalf("%s: ack_%d arrived in p1u, want exactly one solicit, got %d", ctx, j, after[j])
				}
			}
			if m.State() == "p1u" {
				// Every acked, unaccounted slave has been asked by now.
				got := solicitsTo(env)
				for _, s := range slaves {
					if want := acked.Has(s) && !accounted.Has(s); want && got[s] != 1 {
						t.Fatalf("%s: slave %d acked and unaccounted for but never solicited", ctx, s)
					}
				}
				solicited += len(got)
				// UD(solicit) is inert: the window only learns from UD(prepare).
				sent, resets := len(env.Sent), env.TimerResets
				m.OnUndeliverable(env, env.UD(slaves[0], proto.MsgSolicit))
				if m.State() != "p1u" || env.Decision != proto.None || len(env.Sent) != sent || env.TimerResets != resets {
					t.Fatalf("%s: UD(solicit) changed the master", ctx)
				}
			}
			if env.Decision != proto.None {
				t.Fatalf("%s: decided %v with slave %d silent", ctx, env.Decision, silent)
			}
		}
		if solicited < 1000 {
			t.Fatalf("%s: only %d solicits over the trials: the test is vacuous", p.Name(), solicited)
		}
	}
}

// A slave answers a solicit only in p, with one probe to the master, and
// nothing else about it changes: same state, same timer, no decision — so
// its own 3T timeout still probes and enters pt, and until then a
// UD(probe) is ignored as before. In every other state the solicit is
// dropped.
func TestSlaveAnswersSolicitOnlyInP(t *testing.T) {
	for _, p := range windowProtocols {
		fourPhase := p.(core.Protocol).FourPhase
		// Each script drives a fresh slave to the named state.
		type script struct {
			state string
			drive func(env *prototest.Env, s proto.Node)
		}
		xact := func(env *prototest.Env, s proto.Node) { s.OnMsg(env, env.Msg(1, proto.MsgXact)) }
		inP := func(env *prototest.Env, s proto.Node) {
			xact(env, s)
			if fourPhase {
				s.OnMsg(env, env.Msg(1, proto.MsgPre))
			}
			s.OnMsg(env, env.Msg(1, proto.MsgPrepare))
		}
		scripts := []script{
			{"q", func(*prototest.Env, proto.Node) {}},
			{"w", xact},
			{"wt", func(env *prototest.Env, s proto.Node) { xact(env, s); s.OnTimeout(env) }},
			{"p", inP},
			{"pt", func(env *prototest.Env, s proto.Node) { inP(env, s); s.OnTimeout(env) }},
			{"c", func(env *prototest.Env, s proto.Node) { inP(env, s); s.OnMsg(env, env.Msg(1, proto.MsgCommit)) }},
			{"a", func(env *prototest.Env, s proto.Node) { inP(env, s); s.OnMsg(env, env.Msg(1, proto.MsgAbort)) }},
		}
		if fourPhase {
			inE := func(env *prototest.Env, s proto.Node) { xact(env, s); s.OnMsg(env, env.Msg(1, proto.MsgPre)) }
			scripts = append(scripts,
				script{"e", inE},
				script{"et", func(env *prototest.Env, s proto.Node) { inE(env, s); s.OnTimeout(env) }})
		}
		for _, sc := range scripts {
			env := prototest.NewEnv(3, 4)
			s := p.NewSlave(env.Cfg)
			s.Start(env)
			sc.drive(env, s)
			ctx := fmt.Sprintf("%s slave in %s", p.Name(), sc.state)
			if s.State() != sc.state {
				t.Fatalf("%s: script reached %s", ctx, s.State())
			}
			env.ClearSent()
			timer := [4]any{env.TimerActive, env.TimerDur, env.TimerResets, env.TimerStops}
			decisions := env.Decisions

			s.OnMsg(env, env.Msg(1, proto.MsgSolicit))

			if s.State() != sc.state || env.Decisions != decisions ||
				timer != [4]any{env.TimerActive, env.TimerDur, env.TimerResets, env.TimerStops} {
				t.Fatalf("%s: a solicit changed state, timer or decision", ctx)
			}
			if sc.state != "p" {
				if len(env.Sent) != 0 {
					t.Fatalf("%s: answered a solicit with %v", ctx, env.SentKinds())
				}
				continue
			}
			if len(env.Sent) != 1 || env.Sent[0].Kind != proto.MsgProbe || env.Sent[0].To != 1 {
				t.Fatalf("%s: sent %v, want one probe to the master", ctx, env.Sent)
			}
			// The solicited probe coming back changes nothing either: only
			// a slave in pt reads UD(probe) as "I am in G2".
			env.ClearSent()
			s.OnUndeliverable(env, env.UD(1, proto.MsgProbe))
			if s.State() != "p" || env.Decision != proto.None || len(env.Sent) != 0 || !env.TimerActive {
				t.Fatalf("%s: UD(probe) outside pt must be ignored", ctx)
			}
			// And the slave's own failure detector still runs its course.
			s.OnTimeout(env)
			if s.State() != "pt" || env.CountSent(proto.MsgProbe) != 1 {
				t.Fatalf("%s: after a solicit the 3T timeout must still probe and enter pt (state %s)", ctx, s.State())
			}
		}
	}
}
