package site

import (
	"slices"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
)

// handNet is a network the test drives by hand: every send waits in out
// until the test passes it on, in whatever order the test picks; sent
// keeps them all.
type handNet struct{ out, sent []proto.Msg }

func (h *handNet) Send(m proto.Msg) { h.out, h.sent = append(h.out, m), append(h.sent, m) }

// handSites is n engine sites, each a Node with its own registry, sending
// into one handNet; their timers run on one scheduler.
type handSites struct {
	t     *testing.T
	sched *sim.Scheduler
	net   *handNet
	nodes map[proto.SiteID]*Node
	engs  map[proto.SiteID]*engine.Engine
	regs  map[proto.SiteID]*obs.Registry
}

func newHandSites(t *testing.T, n int, protocol proto.Protocol) *handSites {
	h := &handSites{
		t: t, sched: sim.NewScheduler(), net: &handNet{},
		nodes: map[proto.SiteID]*Node{}, engs: map[proto.SiteID]*engine.Engine{}, regs: map[proto.SiteID]*obs.Registry{},
	}
	for _, id := range roster(n) {
		h.engs[id] = engine.New("site", &wal.MemStore{})
		h.boot(id, protocol)
	}
	return h
}

// boot builds a fresh incarnation of site id over its engine.
func (h *handSites) boot(id proto.SiteID, protocol proto.Protocol) {
	h.regs[id] = obs.New()
	h.nodes[id] = NewNode(Site{
		ID: id, Clock: SchedClock{Sched: h.sched, Bound: sim.DefaultT}, Transport: h.net,
		Participant: h.engs[id],
	}, protocol, roster(len(h.engs)), nil, h.regs[id])
}

// pass hands the first waiting message of kind for tid addressed to site to
// over.
func (h *handSites) pass(tid proto.TxnID, kind proto.Kind, to proto.SiteID) {
	h.t.Helper()
	i := slices.IndexFunc(h.net.out, func(m proto.Msg) bool { return m.TID == tid && m.Kind == kind && m.To == to })
	if i < 0 {
		h.t.Fatalf("no %v for txn %d to site %d waiting in %+v", kind, tid, to, h.net.out)
	}
	m := h.net.out[i]
	h.net.out = slices.Delete(h.net.out, i, i+1)
	h.nodes[to].Deliver(m)
}

// settle passes every waiting message on in send order, and fires timers
// whenever none is waiting, until neither is left.
func (h *handSites) settle() {
	for len(h.net.out) > 0 || h.sched.Pending() > 0 {
		if len(h.net.out) == 0 {
			h.sched.Step()
			continue
		}
		m := h.net.out[0]
		h.net.out = h.net.out[1:]
		h.nodes[m.To].Deliver(m)
	}
}

// outcome is site id's decision on tid.
func (h *handSites) outcome(id proto.SiteID, tid proto.TxnID) proto.Outcome {
	st, _ := h.nodes[id].Txn(tid)
	return st.Outcome
}

// xact is the envelope site master sends a slave of txn tid, a write of k.
func xact(tid proto.TxnID, master, to proto.SiteID, sites ...proto.SiteID) proto.Msg {
	return proto.Msg{TID: tid, From: master, To: to, Kind: proto.MsgXact,
		Payload: EncodeXact(XactEnvelope{Master: master, Sites: sites, Body: put("k")})}
}

// An older transaction's xact that meets k locked at site 1 takes the lock
// only from a younger master site 1 itself coordinates, still in w1; every
// other holder keeps it, and the newcomer votes no.
func TestWoundOnlyYoungerLocalMasterInW1(t *testing.T) {
	const older, younger = 1, 2
	cases := []struct {
		name   string
		holder proto.TxnID
		// hold makes holder the lock's holder at site 1.
		hold  func(h *handSites)
		wound bool
	}{
		{"younger local master in w1", younger, func(h *handSites) {
			h.nodes[1].Submit(Spec{TID: younger, Master: 1, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
		}, true},
		{"older local master in w1", older, func(h *handSites) {
			h.nodes[1].Submit(Spec{TID: older, Master: 1, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
		}, false},
		{"younger local master past w1", younger, func(h *handSites) {
			h.nodes[1].Submit(Spec{TID: younger, Master: 1, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
			h.nodes[1].Deliver(proto.Msg{TID: younger, From: 3, To: 1, Kind: proto.MsgYes})
		}, false},
		{"younger slave that voted yes", younger, func(h *handSites) {
			h.nodes[1].Deliver(xact(younger, 3, 1, 1, 3))
		}, false},
		{"younger transaction recovery left in doubt", younger, func(h *handSites) {
			if !h.engs[1].ExecuteAt(younger, put("k"), []proto.SiteID{1, 3}) {
				t.Fatal("txn did not prepare")
			}
			if _, err := h.engs[1].RecoverInPlace(); err != nil {
				t.Fatal(err)
			}
			h.boot(1, core.Protocol{TransientFix: true})
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHandSites(t, 3, core.Protocol{TransientFix: true})
			c.hold(h)
			holderState := func() string {
				st, _ := h.nodes[1].Txn(c.holder)
				return st.State
			}
			before := holderState()
			newcomer := proto.TxnID(older + younger - c.holder)
			h.nodes[1].Deliver(xact(newcomer, 2, 1, 1, 2))

			snap := h.regs[1].Snapshot()
			wounds, fails := snap.Total(obs.MLockWounds), snap.Total(obs.MLockFailures)
			yes := slices.ContainsFunc(h.net.out, func(m proto.Msg) bool { return m.TID == newcomer && m.Kind == proto.MsgYes })
			if !c.wound {
				if yes || wounds != 0 || fails != 1 || h.outcome(1, newcomer) != proto.Abort {
					t.Fatalf("newcomer voted yes=%v (outcome %v), wounds %d, lock failures %d; want a no vote and no wound",
						yes, h.outcome(1, newcomer), wounds, fails)
				}
				if after := holderState(); after != before || h.outcome(1, c.holder) != proto.None ||
					!h.engs[1].Locked("k") || !slices.Contains(h.engs[1].InDoubt(), uint64(c.holder)) {
					t.Fatalf("holder moved %q → %q (outcome %v), or lost k", before, after, h.outcome(1, c.holder))
				}
				return
			}
			if !yes || wounds != 1 || fails != 0 {
				t.Fatalf("newcomer voted yes=%v, wounds %d, lock failures %d; want a yes by one wound", yes, wounds, fails)
			}
			if o, _ := h.engs[1].Outcome(uint64(c.holder)); o != proto.Abort || h.outcome(1, c.holder) != proto.Abort {
				t.Fatalf("wounded master: engine %v, automaton %v; want abort in both", o, h.outcome(1, c.holder))
			}
			if !slices.ContainsFunc(h.net.out, func(m proto.Msg) bool {
				return m.TID == c.holder && m.Kind == proto.MsgAbort && m.To == 3
			}) {
				t.Fatalf("wounded master told its slave nothing: %+v", h.net.out)
			}

			// A crash now: the log alone holds the wounded master's abort
			// and the winner's prepare.
			info, err := h.engs[1].RecoverInPlace()
			if err != nil {
				t.Fatal(err)
			}
			if o, ok := h.engs[1].Outcome(uint64(c.holder)); !ok || o != proto.Abort {
				t.Fatalf("after restart the wounded txn reads %v/%v, want aborted", o, ok)
			}
			if len(info.InDoubt) != 1 || info.InDoubt[0].TID != uint64(newcomer) || !h.engs[1].Locked("k") {
				t.Fatalf("after restart in doubt = %+v, want the winner prepared and holding k", info.InDoubt)
			}
		})
	}
}

// The wounded master's own no aborts it at every site of its roster, under
// every registered protocol, while the older transaction that wounded it
// commits.
func TestWoundedMasterAbortsEverywhere(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			protocol, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			h := newHandSites(t, 4, protocol)
			h.nodes[1].Submit(Spec{TID: 2, Master: 1, Sites: []proto.SiteID{1, 2, 3}, Payload: put("k")})
			h.nodes[4].Submit(Spec{TID: 1, Master: 4, Sites: []proto.SiteID{1, 4}, Payload: put("k")})
			h.pass(1, proto.MsgXact, 1)
			if st, _ := h.nodes[1].Txn(2); st.Outcome != proto.Abort {
				t.Fatalf("younger master = %+v after the older xact, want wounded", st)
			}
			h.settle()
			for _, id := range []proto.SiteID{1, 2, 3} {
				if o := h.outcome(id, 2); o != proto.Abort {
					t.Errorf("site %d decided %v on the wounded txn, want abort", id, o)
				}
			}
			for _, id := range []proto.SiteID{1, 4} {
				if o := h.outcome(id, 1); o != proto.Commit {
					t.Errorf("site %d decided %v on the older txn, want commit", id, o)
				}
			}
		})
	}
}

// Under 2PC a slave in q drops an abort, so a wounded master's abort that
// overtakes its xact means nothing at that slave: the xact then finds it,
// it votes yes and would wait in w forever. The abort said once more T
// later reaches it there.
func TestWoundAbortOvertakingXact(t *testing.T) {
	h := newHandSites(t, 3, twopc.Protocol{})
	h.nodes[1].Submit(Spec{TID: 2, Master: 1, Sites: []proto.SiteID{1, 2}, Payload: put("k")})
	h.nodes[3].Submit(Spec{TID: 1, Master: 3, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
	h.pass(1, proto.MsgXact, 1) // wounds txn 2 at site 1
	h.pass(2, proto.MsgAbort, 2)
	if _, ok := h.nodes[2].Txn(2); ok {
		t.Fatal("an abort ahead of the xact spawned a slave")
	}
	h.pass(2, proto.MsgXact, 2)
	if st, _ := h.nodes[2].Txn(2); st.State != "w" {
		t.Fatalf("slave = %+v after its late xact, want waiting in w", st)
	}
	h.settle()
	if o := h.outcome(2, 2); o != proto.Abort {
		t.Fatalf("slave decided %v, want abort (blocked in w without the repeated abort)", o)
	}
	if o := h.outcome(1, 1); o != proto.Commit {
		t.Fatalf("older txn decided %v at site 1, want commit", o)
	}
}
