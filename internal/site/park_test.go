package site

import (
	"slices"
	"testing"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/twopc"
	"termproto/internal/sim"
)

// slackXact is xact with the stamp the simulator puts on one sent at
// sentAt that took d: the rest of T is its slack.
func slackXact(tid proto.TxnID, master, to proto.SiteID, sentAt sim.Time, d sim.Duration, sites ...proto.SiteID) proto.Msg {
	m := xact(tid, master, to, sites...)
	m.SentAt, m.Slack = sentAt, sim.DefaultT-d
	return m
}

// holdAsSlave makes txn tid, mastered by master, a slave at site id that
// voted yes: it holds k there until master decides.
func (h *handSites) holdAsSlave(tid proto.TxnID, master, id proto.SiteID) {
	h.t.Helper()
	h.nodes[master].Submit(Spec{TID: tid, Master: master, Sites: []proto.SiteID{id, master}, Payload: put("k")})
	h.pass(tid, proto.MsgXact, id)
	if !h.sent(tid, proto.MsgYes, id) {
		h.t.Fatalf("txn %d's slave at site %d did not vote yes", tid, id)
	}
}

// sent reports whether site from has sent a kind message for tid that is
// still waiting.
func (h *handSites) sent(tid proto.TxnID, kind proto.Kind, from proto.SiteID) bool {
	return slices.ContainsFunc(h.net.out, func(m proto.Msg) bool { return m.TID == tid && m.Kind == kind && m.From == from })
}

// spawned reports whether site id has an automaton for tid.
func (h *handSites) spawned(id proto.SiteID, tid proto.TxnID) bool {
	_, ok := h.nodes[id].Table.Txn(tid)
	return ok
}

// waits is site id's lock-wait count by outcome: granted, expired, dropped.
func (h *handSites) waits(id proto.SiteID) [3]int64 {
	snap := h.regs[id].Snapshot()
	var out [3]int64
	for i, o := range []string{"granted", "expired", "dropped"} {
		out[i] = snap.Value(obs.MLockWaits, obs.L("shard", "0"), obs.L("outcome", o))
	}
	return out
}

// An xact that meets k held by a slave that voted yes waits, holding no
// lock and with no automaton, and votes yes once the holder commits.
func TestParkedXactVotesYesOnceHolderCommits(t *testing.T) {
	h := newHandSites(t, 3, twopc.Protocol{})
	h.holdAsSlave(1, 2, 1)
	h.nodes[1].Deliver(slackXact(2, 3, 1, 0, 300, 1, 3))
	if h.spawned(1, 2) || h.sent(2, proto.MsgNo, 1) || h.sent(2, proto.MsgYes, 1) {
		t.Fatal("a blocked xact was handed to a slave at once")
	}
	if holders := h.engs[1].Blocker(2, put("k")); !slices.Equal(holders, []uint64{1}) {
		t.Fatalf("k is blocked by txns %v, want its holder 1", holders)
	}

	h.pass(1, proto.MsgYes, 2)
	h.pass(1, proto.MsgCommit, 1)
	if !h.sent(2, proto.MsgYes, 1) {
		t.Fatalf("parked xact did not vote yes once k freed: %+v", h.net.out)
	}
	if w := h.waits(1); w != [3]int64{1, 0, 0} {
		t.Fatalf("waits (granted, expired, dropped) = %v, want one granted", w)
	}
	if h.sched.Now() != 0 {
		t.Fatalf("the grant waited for the clock: now %d", h.sched.Now())
	}
}

// A parked xact whose holder never lets go is handed on, and votes no, at
// the latest instant it could have arrived: its send instant plus T.
func TestParkedXactVotesNoAtDeadline(t *testing.T) {
	h := newHandSites(t, 3, twopc.Protocol{})
	h.holdAsSlave(1, 2, 1)
	const sentAt, d = 200, 300
	h.sched.At(sentAt+d, sim.PriDeliver, func() { h.nodes[1].Deliver(slackXact(2, 3, 1, sentAt, d, 1, 3)) })
	for !h.sent(2, proto.MsgNo, 1) {
		if h.spawned(1, 2) {
			t.Fatalf("slave spawned at %d before its no", h.sched.Now())
		}
		if !h.sched.Step() {
			t.Fatal("the parked xact never voted")
		}
	}
	if now := h.sched.Now(); now != sentAt+sim.Time(sim.DefaultT) {
		t.Fatalf("parked xact voted no at %d, want SentAt + T = %d", now, sentAt+sim.DefaultT)
	}
	if w := h.waits(1); w != [3]int64{0, 1, 0} {
		t.Fatalf("waits (granted, expired, dropped) = %v, want one expired", w)
	}
	if o := h.outcome(1, 2); o != proto.Abort {
		t.Fatalf("slave decided %v after voting no, want abort", o)
	}
}

// An abort that reaches a parked xact drops it: its slave is never spawned,
// not when the holder lets go and not at the deadline.
func TestParkedXactDroppedByAbort(t *testing.T) {
	h := newHandSites(t, 3, twopc.Protocol{})
	h.holdAsSlave(1, 2, 1)
	h.nodes[1].Deliver(slackXact(2, 3, 1, 0, 300, 1, 3))
	h.nodes[1].Deliver(proto.Msg{TID: 2, From: 3, To: 1, Kind: proto.MsgAbort})
	if w := h.waits(1); w != [3]int64{0, 0, 1} {
		t.Fatalf("waits (granted, expired, dropped) = %v, want one dropped", w)
	}
	h.settle()
	if o := h.outcome(1, 1); o != proto.Commit {
		t.Fatalf("holder decided %v, want commit", o)
	}
	if h.spawned(1, 2) || h.sent(2, proto.MsgYes, 1) || h.sent(2, proto.MsgNo, 1) {
		t.Fatal("the dropped xact spawned a slave")
	}
	if h.engs[1].Locked("k") {
		t.Fatal("k still locked after the holder committed")
	}
}

// A submission whose key is held waits at most T/4: the first is granted
// when the holder commits, and a second, blocked by the first, is handed
// on — to abort — T/4 after it arrived.
func TestParkedSubmissionGrantedOrExpired(t *testing.T) {
	h := newHandSites(t, 4, twopc.Protocol{})
	h.holdAsSlave(1, 2, 1)
	h.nodes[1].Submit(Spec{TID: 3, Master: 1, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
	h.nodes[1].Submit(Spec{TID: 4, Master: 1, Sites: []proto.SiteID{1, 4}, Payload: put("k")})
	if h.spawned(1, 3) || h.spawned(1, 4) || h.sent(3, proto.MsgXact, 1) {
		t.Fatal("a blocked submission started its master at once")
	}

	h.pass(1, proto.MsgYes, 2)
	h.pass(1, proto.MsgCommit, 1)
	if st, _ := h.nodes[1].Txn(3); st.State != "w1" || !h.sent(3, proto.MsgXact, 1) {
		t.Fatalf("first submission = %+v once k freed, want its master collecting votes", st)
	}
	if h.spawned(1, 4) {
		t.Fatal("second submission went on while the first holds k")
	}
	for !h.spawned(1, 4) {
		if !h.sched.Step() {
			t.Fatal("the second submission never went on")
		}
	}
	if now := h.sched.Now(); now != sim.Time(sim.DefaultT/4) {
		t.Fatalf("second submission went on at %d, want T/4 = %d", now, sim.DefaultT/4)
	}
	if o := h.outcome(1, 4); o != proto.Abort {
		t.Fatalf("expired submission decided %v, want abort", o)
	}
	if w := h.waits(1); w != [3]int64{1, 1, 0} {
		t.Fatalf("waits (granted, expired, dropped) = %v, want one granted, one expired", w)
	}
}

// Close drops every parked item, and no parked timer spawns anything
// afterwards.
func TestParkedTimersStopAtClose(t *testing.T) {
	h := newHandSites(t, 4, twopc.Protocol{})
	h.holdAsSlave(1, 2, 1)
	h.nodes[1].Submit(Spec{TID: 3, Master: 1, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
	h.nodes[1].Deliver(slackXact(4, 4, 1, 0, 300, 1, 4))
	h.nodes[1].Close()
	if w := h.waits(1); w != [3]int64{0, 0, 2} {
		t.Fatalf("waits (granted, expired, dropped) = %v, want both dropped", w)
	}
	for h.sched.Step() {
	}
	if h.spawned(1, 3) || h.spawned(1, 4) {
		t.Fatal("a parked item went on after Close")
	}
}

// A wait that is granted is a slower hop and nothing else: under every
// registered protocol the parked transaction commits at every site of its
// roster, after the holder committed at every site of its own.
func TestParkGrantedCommitsEverywhere(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			protocol, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			h := newHandSites(t, 3, protocol)
			h.nodes[2].Submit(Spec{TID: 1, Master: 2, Sites: []proto.SiteID{1, 2}, Payload: put("k")})
			h.nodes[3].Submit(Spec{TID: 2, Master: 3, Sites: []proto.SiteID{1, 3}, Payload: put("k")})
			h.pass(1, proto.MsgXact, 1)
			i := slices.IndexFunc(h.net.out, func(m proto.Msg) bool { return m.TID == 2 && m.Kind == proto.MsgXact })
			m := h.net.out[i]
			h.net.out = slices.Delete(h.net.out, i, i+1)
			m.Slack = sim.DefaultT
			h.nodes[1].Deliver(m)
			if h.spawned(1, 2) {
				t.Fatal("the xact that met k held was handed on at once")
			}
			h.settle()
			for tid, sites := range map[proto.TxnID][]proto.SiteID{1: {1, 2}, 2: {1, 3}} {
				for _, id := range sites {
					if o := h.outcome(id, tid); o != proto.Commit {
						t.Errorf("site %d decided %v on txn %d, want commit", id, o, tid)
					}
				}
			}
			if w := h.waits(1); w != [3]int64{1, 0, 0} {
				t.Fatalf("waits (granted, expired, dropped) = %v, want one granted", w)
			}
		})
	}
}
