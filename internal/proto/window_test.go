package proto_test

import (
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
	"termproto/internal/protocol/fourpc"
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
		core.Protocol{}, core.Protocol{TransientFix: true}, fourpc.Protocol{},
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
