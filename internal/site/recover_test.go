package site

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// recoverySites is n sites on a hand-driven network (handNet): a site in
// engs runs over that engine, any other has no database — it answers no
// inquiry and refuses every snapshot request.
func recoverySites(t *testing.T, n int, engs map[proto.SiteID]*engine.Engine) *handSites {
	h := &handSites{
		t: t, sched: sim.NewScheduler(), net: &handNet{},
		nodes: map[proto.SiteID]*Node{}, engs: engs, regs: map[proto.SiteID]*obs.Registry{},
	}
	for _, id := range roster(n) {
		h.restart(id, n)
	}
	return h
}

// restart builds a fresh incarnation of site id in an n-site cluster.
func (h *handSites) restart(id proto.SiteID, n int) {
	s := Site{ID: id, Clock: SchedClock{Sched: h.sched, Bound: sim.DefaultT}, Transport: h.net, Engine: h.engs[id]}
	h.nodes[id] = NewNode(s, core.Protocol{}, roster(n), nil, nil)
}

// take removes and returns the first waiting message of kind from site
// from to site to.
func (h *handSites) take(kind proto.Kind, from, to proto.SiteID) proto.Msg {
	h.t.Helper()
	i := slices.IndexFunc(h.net.out, func(m proto.Msg) bool { return m.Kind == kind && m.From == from && m.To == to })
	if i < 0 {
		h.t.Fatalf("no %v from site %d to site %d waiting in %+v", kind, from, to, h.net.out)
	}
	m := h.net.out[i]
	h.net.out = slices.Delete(h.net.out, i, i+1)
	return m
}

// bounce returns the waiting message of kind from site from to site to to
// its sender, as a cut does.
func (h *handSites) bounce(kind proto.Kind, from, to proto.SiteID) {
	m := h.take(kind, from, to)
	m.Undeliverable = true
	h.nodes[from].Deliver(m)
}

// deliver hands the waiting message of kind from site from to site to on.
func (h *handSites) deliver(kind proto.Kind, from, to proto.SiteID) {
	h.nodes[to].Deliver(h.take(kind, from, to))
}

// recovered is what one recovery reported, and when.
type recovered struct {
	done bool
	at   sim.Time
	st   recovery.Stats
	err  error
}

// recover starts site id's recovery.
func (h *handSites) recover(id proto.SiteID) *recovered {
	r := &recovered{}
	h.nodes[id].Recover(func(st recovery.Stats, err error) {
		*r = recovered{true, h.sched.Now(), st, err}
	})
	return r
}

// inDoubtAt builds a restarting site's engine: txn 1 committed on acct/a
// (100 → 90) and txn 2 prepared but undecided on acct/b (100 → 75), with
// the given roster in its begin record (nil: none).
func inDoubtAt(t *testing.T, roster []proto.SiteID) *engine.Engine {
	t.Helper()
	e := engine.New("restarting", &wal.MemStore{})
	e.PutInt("acct/a", 100)
	e.PutInt("acct/b", 100)
	if !e.ExecuteAt(1, engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "acct/a", Delta: -10}}), nil) {
		t.Fatal("txn 1 voted no")
	}
	e.Commit(1)
	if !e.ExecuteAt(2, engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "acct/b", Delta: -25}}), roster) {
		t.Fatal("txn 2 voted no")
	}
	return e
}

// replica is an engine holding vals and, when decided is set, the durable
// decision o for txn 2.
func replica(vals map[string]int64, decided bool, o proto.Outcome) *engine.Engine {
	e := engine.New("replica", &wal.MemStore{})
	for k, v := range vals {
		e.PutInt(k, v)
	}
	if decided && o == proto.Commit {
		e.Commit(2)
	} else if decided {
		e.Abort(2)
	}
	return e
}

// askedPeers lists, ascending, the sites a waiting MsgInquire for tid goes
// to.
func (h *handSites) askedPeers(tid proto.TxnID) []proto.SiteID {
	var out []proto.SiteID
	for _, m := range h.net.out {
		if m.Kind == proto.MsgInquire && m.TID == tid {
			out = append(out, m.To)
		}
	}
	return out
}

// The in-doubt transaction's roster comes from its begin record: only its
// members are asked (site 3 is itself), and a member's durable commit
// resolves it.
func TestRecoveryCommitFromRosterPeer(t *testing.T) {
	settled := map[string]int64{"acct/a": 90, "acct/b": 75}
	h := recoverySites(t, 5, map[proto.SiteID]*engine.Engine{
		3: inDoubtAt(t, []proto.SiteID{1, 3, 5}),
		5: replica(settled, true, proto.Commit),
	})
	r := h.recover(3)
	if got := h.askedPeers(2); !slices.Equal(got, []proto.SiteID{1, 5}) {
		t.Fatalf("asked %v, want the roster's other members [1 5]", got)
	}
	h.settle()
	if !r.done || r.err != nil || r.st.Replayed != 1 || r.st.InDoubt != 1 || r.st.ResolvedCommit != 1 || r.st.Unresolved != 0 {
		t.Fatalf("recovery = %+v", r)
	}
	e := h.engs[3]
	if e.GetInt("acct/b") != 75 || e.GetInt("acct/a") != 90 {
		t.Fatalf("acct/a = %d, acct/b = %d; want 90 and 75", e.GetInt("acct/a"), e.GetInt("acct/b"))
	}
}

// A begin record without a roster falls back to asking every site, and a
// durable abort resolves the transaction: its write is undone and its
// locks released.
func TestRecoveryAbortFallsBackToAllSites(t *testing.T) {
	h := recoverySites(t, 5, map[proto.SiteID]*engine.Engine{
		3: inDoubtAt(t, nil),
		4: replica(map[string]int64{"acct/a": 90, "acct/b": 100}, true, proto.Abort),
	})
	r := h.recover(3)
	if got := h.askedPeers(2); !slices.Equal(got, []proto.SiteID{1, 2, 4, 5}) {
		t.Fatalf("asked %v, want every other site", got)
	}
	h.settle()
	e := h.engs[3]
	if !r.done || r.st.ResolvedAbort != 1 || r.st.ResolvedCommit != 0 || r.st.Unresolved != 0 {
		t.Fatalf("recovery = %+v", r)
	}
	if e.GetInt("acct/b") != 100 || len(e.InDoubt()) != 0 || e.Locked("acct/b") {
		t.Fatalf("acct/b = %d, in doubt %v, locked %v after the abort", e.GetInt("acct/b"), e.InDoubt(), e.Locked("acct/b"))
	}
}

// No decided peer: the transaction stays in doubt, its locks held, and is
// kept in Unresolved for an answer still to come.
func TestRecoveryUnresolvedKeepsLocks(t *testing.T) {
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{3: inDoubtAt(t, []proto.SiteID{1, 3})})
	r := h.recover(3)
	h.settle()
	if !r.done || r.st.Unresolved != 1 || r.st.ResolvedCommit+r.st.ResolvedAbort != 0 {
		t.Fatalf("recovery = %+v", r)
	}
	if !h.engs[3].Locked("acct/b") {
		t.Fatal("unresolved in-doubt transaction released its lock")
	}
	if got := h.nodes[3].Unresolved(); len(got) != 1 || got[0].TID != 2 {
		t.Fatalf("kept in doubt: %+v, want txn 2", got)
	}
}

// An answer held in flight past the inquiry step's end still counts: the
// step ends at 2T with the transaction in doubt, and the peer's durable
// commit, landing later, resolves it — outside any pass, whose report
// stays as it was.
func TestRecoveryLateAnswerResolves(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 90, "acct/b": 75}, true, proto.Commit),
		2: inDoubtAt(t, []proto.SiteID{1, 2}),
	})
	r := h.recover(2)
	held := h.take(proto.MsgInquire, 2, 1)
	h.sched.Step()
	if now, got := h.sched.Now(), h.nodes[2].Unresolved(); now != sim.Time(2*sim.DefaultT) || len(got) != 1 {
		t.Fatalf("at %d the inquiry step left %+v in doubt, want txn 2 at 2T", now, got)
	}
	h.nodes[1].Deliver(held)
	h.settle()
	e := h.engs[2]
	if !r.done || r.st.Unresolved != 1 || r.st.ResolvedCommit != 0 {
		t.Fatalf("recovery = %+v, want its pass to report txn 2 unresolved", r)
	}
	if o, _ := e.Outcome(2); o != proto.Commit || len(h.nodes[2].Unresolved()) != 0 {
		t.Fatalf("late answer: outcome %v, pending %+v; want commit, nothing pending", o, h.nodes[2].Unresolved())
	}
	if e.GetInt("acct/b") != 75 || e.Locked("acct/b") || len(e.InDoubt()) != 0 {
		t.Fatalf("acct/b = %d, locked %v, in doubt %v after the late commit", e.GetInt("acct/b"), e.Locked("acct/b"), e.InDoubt())
	}
}

// A slot recovery resolved reads the instant the answer landed as its
// decision time, on the daemons' /txns as in the simulator's results; one
// decided before the restart has no instant in the log and reads 0.
func TestRecoveryResolvedSlotCarriesDecisionTime(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 90, "acct/b": 75}, true, proto.Commit),
		2: inDoubtAt(t, []proto.SiteID{1, 2}),
	})
	h.recover(2)
	held := h.take(proto.MsgInquire, 2, 1)
	h.sched.Step() // the inquiry step ends at 2T; the answer lands then
	h.nodes[1].Deliver(held)
	h.deliver(proto.MsgCommit, 1, 2)
	if st, ok := h.nodes[2].Txn(2); !ok || st.Outcome != proto.Commit || st.DecidedAt != sim.Time(2*sim.DefaultT) {
		t.Fatalf("resolved txn 2 = %+v (%v), want commit decided at %d", st, ok, 2*sim.DefaultT)
	}
	if st, _ := h.nodes[2].Txn(1); st.Outcome != proto.Commit || st.DecidedAt != 0 {
		t.Fatalf("txn 1, committed before the restart = %+v, want commit at 0", st)
	}
}

// The mirror case: a slave restarted in doubt asks its master, which is
// still deciding and so stays silent; the slave's inquiry step ends at 2T,
// and the master's decision, taken after that, resolves the slave when it
// lands.
func TestRecoverySlaveResolvedByLateMaster(t *testing.T) {
	h := newHandSites(t, 2, core.Protocol{TransientFix: true})
	h.nodes[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(2), Payload: put("k")})
	h.pass(1, proto.MsgXact, 2)
	// Site 2 crashes with its yes vote out: a fresh incarnation recovers.
	h.nodes[2].Close()
	h.boot(2, core.Protocol{TransientFix: true})
	r := h.recover(2)
	h.sched.At(sim.Time(sim.DefaultT/2), sim.PriControl, func() {})
	h.sched.Step()
	h.pass(1, proto.MsgYes, 1) // the master enters p1 at T/2: it decides at 2.5T
	h.pass(1, proto.MsgInquire, 1)
	h.sched.Step()
	if now, got := h.sched.Now(), h.nodes[2].Unresolved(); now != sim.Time(2*sim.DefaultT) || len(got) != 1 || h.outcome(1, 1) != proto.None {
		t.Fatalf("at %d site 2 left %+v in doubt and the master decided %v; want txn 1 at 2T, undecided",
			now, got, h.outcome(1, 1))
	}
	h.settle()
	if !r.done || r.st.InDoubt != 1 || r.st.Unresolved != 1 {
		t.Fatalf("recovery = %+v, want its pass to report txn 1 unresolved", r)
	}
	o, _ := h.engs[2].Outcome(1)
	if want := h.outcome(1, 1); want == proto.None || o != want || len(h.nodes[2].Unresolved()) != 0 || len(h.engs[2].InDoubt()) != 0 {
		t.Fatalf("site 2 holds %v, pending %+v; want the master's %v", o, h.nodes[2].Unresolved(), want)
	}
}

// A database site still deciding a transaction stays silent to an
// inquiry about it, and answers once its decision is durable.
func TestRecoveryInquiryAnsweredOnceDecided(t *testing.T) {
	h := newHandSites(t, 3, core.Protocol{TransientFix: true})
	h.nodes[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(2), Payload: put("k")})
	h.pass(1, proto.MsgXact, 2)
	h.nodes[2].Deliver(proto.Msg{TID: 1, From: 3, To: 2, Kind: proto.MsgInquire})
	answers := func() (out []proto.Kind) {
		for _, m := range h.net.sent {
			if m.To == 3 {
				out = append(out, m.Kind)
			}
		}
		return out
	}
	if got := answers(); len(got) != 0 {
		t.Fatalf("undecided site answered %v", got)
	}
	h.settle()
	if h.outcome(2, 1) != proto.Commit || !slices.Equal(answers(), []proto.Kind{proto.MsgCommit}) {
		t.Fatalf("site 2 decided %v and answered %v, want one commit", h.outcome(2, 1), answers())
	}
}

// A silent peer — one that is down — is waited for one round trip, 2T,
// per step: the inquiry step ends at 2T and the catch-up step, every donor
// down too, at 4T.
func TestRecoverySilentPeerTimesOutAtTwoT(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{2: inDoubtAt(t, []proto.SiteID{1, 2})})
	r := h.recover(2)
	h.take(proto.MsgInquire, 2, 1) // lost: site 1 is down
	h.sched.Step()
	if now := h.sched.Now(); now != sim.Time(2*sim.DefaultT) || r.done {
		t.Fatalf("inquiry step ended at %d (done %v), want at 2T = %d", now, r.done, 2*sim.DefaultT)
	}
	h.take(proto.MsgSnapshot, 2, 1)
	h.sched.Step()
	if !r.done || r.at != sim.Time(4*sim.DefaultT) || r.st.Unresolved != 1 {
		t.Fatalf("recovery = %+v, want done at 4T with txn 2 unresolved", r)
	}
}

// An inquiry across a cut bounces: with every inquiry for it returned, the
// transaction stays in doubt at once — no wait — and so does the catch-up
// whose only donor bounced. The heal edge asks again, and the answer
// resolves it.
func TestRecoveryInquiryBounceStaysInDoubt(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 90, "acct/b": 75}, true, proto.Commit),
		2: inDoubtAt(t, []proto.SiteID{1, 2}),
	})
	r := h.recover(2)
	h.bounce(proto.MsgInquire, 2, 1)
	h.bounce(proto.MsgSnapshot, 2, 1)
	if !r.done || r.at != 0 || r.st.Unresolved != 1 || !h.engs[2].Locked("acct/b") {
		t.Fatalf("recovery = %+v, want done at once with txn 2 in doubt and locked", r)
	}
	h.nodes[2].RetryInDoubt()
	h.deliver(proto.MsgInquire, 2, 1)
	h.deliver(proto.MsgCommit, 1, 2)
	if len(h.nodes[2].Unresolved()) != 0 || h.engs[2].GetInt("acct/b") != 75 || h.engs[2].Locked("acct/b") {
		t.Fatalf("after the heal: pending %v, acct/b = %d", h.nodes[2].Unresolved(), h.engs[2].GetInt("acct/b"))
	}
	if r.st.Unresolved != 1 || r.st.ResolvedCommit != 0 || len(h.net.out) != 0 {
		t.Fatalf("recovery = %+v, waiting %+v; want the pass's report as it was and nothing more sent", r, h.net.out)
	}
	h.nodes[2].RetryInDoubt()
	if len(h.net.out) != 0 {
		t.Fatalf("asked again with nothing in doubt: %+v", h.net.out)
	}
}

// The first donor to reply serves the source: a bounced donor is skipped,
// and a later reply from another is ignored. The puller adopts the
// donor's newer and new keys.
func TestRecoveryCatchUpFromFirstDonor(t *testing.T) {
	h := recoverySites(t, 4, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 90, "acct/b": 75}, true, proto.Commit),
		3: inDoubtAt(t, []proto.SiteID{1, 3}),
		// Donor 4 has moved on: acct/a changed and acct/c is new.
		4: replica(map[string]int64{"acct/a": 42, "acct/b": 75, "acct/c": 7}, false, 0),
	})
	r := h.recover(3)
	h.deliver(proto.MsgInquire, 3, 1)
	h.deliver(proto.MsgCommit, 1, 3)
	h.bounce(proto.MsgSnapshot, 3, 2)
	h.deliver(proto.MsgSnapshot, 3, 4)
	h.deliver(proto.MsgSnapshot, 4, 3)
	h.settle() // donor 1's late reply changes nothing
	e := h.engs[3]
	if !r.done || r.st.CaughtUpKeys != 2 {
		t.Fatalf("recovery = %+v, want 2 keys caught up (acct/a, acct/c)", r)
	}
	if e.GetInt("acct/a") != 42 || e.GetInt("acct/b") != 75 || e.GetInt("acct/c") != 7 {
		t.Fatalf("after catch-up a=%d b=%d c=%d", e.GetInt("acct/a"), e.GetInt("acct/b"), e.GetInt("acct/c"))
	}
}

// A key the donor no longer has was deleted while the puller was down.
func TestRecoveryCatchUpDeletesStaleKeys(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"gone": 1, "kept": 2}, false, 0),
		2: replica(map[string]int64{"kept": 2}, false, 0),
	})
	r := h.recover(1)
	h.settle()
	if !r.done || r.st.CaughtUpKeys != 1 {
		t.Fatalf("recovery = %+v, want 1 key caught up", r)
	}
	if _, ok := h.engs[1].Get("gone"); ok || h.engs[1].GetInt("kept") != 2 {
		t.Fatal("stale key survived, or the matching one was disturbed")
	}
}

// The stale-donor case: the donor still holds the transaction recovery
// just resolved as committed, so it flags its keys unstable, and the
// catch-up must not roll the resolved commit back to the donor's old
// values — while still taking the donor's other newer keys.
func TestRecoveryCatchUpKeepsResolvedCommit(t *testing.T) {
	donor := replica(map[string]int64{"acct/a": 33, "acct/b": 100}, false, 0)
	if !donor.ExecuteAt(2, engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "acct/b", Delta: -25}}), roster(3)) {
		t.Fatal("donor's txn 2 voted no")
	}
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{
		1: donor,
		2: replica(nil, true, proto.Commit),
		3: inDoubtAt(t, roster(3)),
	})
	r := h.recover(3)
	h.deliver(proto.MsgInquire, 3, 2)
	h.deliver(proto.MsgCommit, 2, 3)
	h.deliver(proto.MsgSnapshot, 3, 1)
	h.deliver(proto.MsgSnapshot, 1, 3)
	h.settle()
	e := h.engs[3]
	if !r.done || r.st.ResolvedCommit != 1 {
		t.Fatalf("recovery = %+v", r)
	}
	if e.GetInt("acct/b") != 75 || e.GetInt("acct/a") != 33 {
		t.Fatalf("acct/b = %d (want 75, the resolved commit), acct/a = %d (want 33)", e.GetInt("acct/b"), e.GetInt("acct/a"))
	}
}

// snapsSent decodes every MsgSnapshot site from has sent.
func (h *handSites) snapsSent(from proto.SiteID) []snapMsg {
	h.t.Helper()
	var out []snapMsg
	for _, m := range h.net.sent {
		if m.Kind == proto.MsgSnapshot && m.From == from {
			var s snapMsg
			if err := json.Unmarshal(m.Payload, &s); err != nil {
				h.t.Fatalf("snapshot payload from site %d: %v", from, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// pullOf is the serial of the waiting snapshot request from site from to
// site to.
func (h *handSites) pullOf(from, to proto.SiteID) uint64 {
	h.t.Helper()
	i := slices.IndexFunc(h.net.out, func(m proto.Msg) bool {
		return m.Kind == proto.MsgSnapshot && m.From == from && m.To == to
	})
	var s snapMsg
	if i < 0 || json.Unmarshal(h.net.out[i].Payload, &s) != nil || !s.Req {
		h.t.Fatalf("no snapshot request from site %d to site %d waiting in %+v", from, to, h.net.out)
	}
	return s.Pull
}

// refusal is site from's refusal of site to's snapshot request pull.
func refusal(from, to proto.SiteID, pull uint64) proto.Msg {
	payload, _ := json.Marshal(snapMsg{Refused: true, Pull: pull})
	return proto.Msg{From: from, To: to, Kind: proto.MsgSnapshot, Payload: payload}
}

// A site whose own recovery has not finished does not donate — its state
// may lack commits it missed, and a puller would take their absence for
// deletes — and neither does a site without a database: each refuses at
// once, so the puller ends its catch-up without waiting out 2T. Once
// recovered, a site answers with a chunk.
func TestRecoveryDonorRefusesUntilRecovered(t *testing.T) {
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{
		2: replica(map[string]int64{"k": 1}, false, 0),
		3: inDoubtAt(t, []proto.SiteID{1, 3}),
	})
	three := h.recover(3) // stays in its inquiry step: site 1 is slow
	two := h.recover(2)
	pull := h.pullOf(2, 3)
	h.deliver(proto.MsgSnapshot, 2, 3)
	h.deliver(proto.MsgSnapshot, 2, 1) // no database
	for _, donor := range []proto.SiteID{3, 1} {
		if got := h.snapsSent(donor); len(got) != 1 || !got[0].Refused || got[0].Pull != pull || len(got[0].Entries) != 0 {
			t.Fatalf("site %d sent %+v, want exactly one refusal of pull %d", donor, got, pull)
		}
	}
	h.deliver(proto.MsgSnapshot, 3, 2)
	h.deliver(proto.MsgSnapshot, 1, 2)
	if !two.done || two.at != 0 || two.err != nil {
		t.Fatalf("site 2's recovery = %+v, want done at once with both donors refusing", two)
	}
	if three.done {
		t.Fatal("site 3 finished without an answer to its inquiry")
	}
	h.settle()
	if !three.done {
		t.Fatal("site 3 did not finish")
	}
	h.nodes[3].Deliver(proto.Msg{From: 1, To: 3, Kind: proto.MsgSnapshot, Payload: []byte(`{"Req":true,"Pull":9}`)})
	got := h.snapsSent(3)
	if last := got[len(got)-1]; last.Refused || last.Pull != 9 || len(last.Entries) == 0 {
		t.Fatalf("a recovered site answered %+v, want a chunk of pull 9", last)
	}
}

// A cold cluster — every site recovering at once, none able to donate —
// is ready in one round trip: each request is refused, and every recovery
// is done once the requests and refusals are delivered, before any timer
// fires.
func TestRecoveryColdClusterDoneInOneRoundTrip(t *testing.T) {
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"k": 1}, false, 0),
		2: replica(map[string]int64{"k": 1}, false, 0),
		3: replica(map[string]int64{"k": 1}, false, 0),
	})
	var rs []*recovered
	for _, id := range roster(3) {
		rs = append(rs, h.recover(id))
	}
	for len(h.net.out) > 0 {
		m := h.net.out[0]
		h.net.out = h.net.out[1:]
		h.nodes[m.To].Deliver(m)
	}
	for i, r := range rs {
		if !r.done || r.at != 0 || r.err != nil || r.st.CaughtUpKeys != 0 {
			t.Fatalf("site %d's recovery = %+v, want done at 0 with nothing caught up", i+1, r)
		}
	}
	if n := h.sched.Pending(); n != 0 {
		t.Fatalf("%d timers still armed", n)
	}
	for _, id := range roster(3) {
		for _, s := range h.snapsSent(id) {
			if !s.Req && !s.Refused {
				t.Fatalf("site %d donated %+v while recovering", id, s)
			}
		}
	}
}

// A refusal donates nothing: a puller every donor refuses keeps each of
// its keys, even ones no donor holds.
func TestRecoveryRefusedPullerKeepsItsKeys(t *testing.T) {
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 1, "acct/b": 2}, false, 0),
		2: replica(nil, false, 0), // recovering; site 3 has no database
	})
	r := h.recover(1)
	h.recover(2)
	h.take(proto.MsgSnapshot, 2, 1) // site 2's own pull is still out
	h.take(proto.MsgSnapshot, 2, 3)
	h.deliver(proto.MsgSnapshot, 1, 2)
	h.deliver(proto.MsgSnapshot, 1, 3)
	h.deliver(proto.MsgSnapshot, 2, 1)
	h.deliver(proto.MsgSnapshot, 3, 1)
	if !r.done || r.at != 0 || r.err != nil || r.st.CaughtUpKeys != 0 {
		t.Fatalf("recovery = %+v, want done at once with nothing caught up", r)
	}
	if e := h.engs[1]; e.GetInt("acct/a") != 1 || e.GetInt("acct/b") != 2 {
		t.Fatalf("acct/a = %d, acct/b = %d after refusals; want 1 and 2", e.GetInt("acct/a"), e.GetInt("acct/b"))
	}
}

// A refusal counts only for the request outstanding and only until a
// donor has replied: one with a stale serial, or one arriving after
// another donor's first chunk, changes nothing, and the donor that replied
// serves the whole source.
func TestRecoveryStaleRefusalIsNoOp(t *testing.T) {
	donor := engine.New("donor", &wal.MemStore{})
	for i := 0; i < 1000; i++ {
		donor.Put(fmt.Sprintf("k%04d", i), make([]byte, 100))
	}
	h := recoverySites(t, 3, map[proto.SiteID]*engine.Engine{
		1: donor, // site 2 has no database
		3: engine.New("puller", &wal.MemStore{}),
	})
	r := h.recover(3)
	first := h.pullOf(3, 2)
	h.nodes[3].Deliver(refusal(2, 3, first-1))
	h.deliver(proto.MsgSnapshot, 3, 2)
	h.deliver(proto.MsgSnapshot, 2, 3)
	if r.done {
		t.Fatalf("recovery = %+v after one refusal of two requests and a stale one, want it waiting on site 1", r)
	}
	h.deliver(proto.MsgSnapshot, 3, 1)
	h.deliver(proto.MsgSnapshot, 1, 3)
	next := h.pullOf(3, 1)
	h.nodes[3].Deliver(refusal(2, 3, next))
	h.nodes[3].Deliver(refusal(2, 3, first))
	if r.done {
		t.Fatalf("recovery = %+v after refusals from a donor that did not reply, want it pulling from site 1", r)
	}
	h.settle()
	if want, got := donor.Snapshot(), h.engs[3].Snapshot(); !r.done || len(got) != len(want) {
		t.Fatalf("recovery = %+v, puller holds %d keys; want all %d of the donor's", r, len(got), len(want))
	}
}

// A snapshot larger than one chunk comes in several, each applied within
// its own key range: the puller ends byte-identical to the donor —
// changed, missing and deleted keys alike, before, between and after
// chunk boundaries.
func TestRecoveryMultiChunkSnapshotReproducesDonor(t *testing.T) {
	value := make([]byte, 200)
	donor, puller := engine.New("donor", &wal.MemStore{}), engine.New("puller", &wal.MemStore{})
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%05d", i)
		switch i % 4 {
		case 0: // the same on both
			donor.Put(key, value)
			puller.Put(key, value)
		case 1: // changed while the puller was down
			donor.Put(key, []byte(key))
			puller.Put(key, value)
		case 2: // new
			donor.Put(key, value)
		case 3: // deleted while the puller was down
			puller.Put(key, value)
		}
	}
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{1: donor, 2: puller})
	r := h.recover(2)
	chunks := 0
	for len(h.net.out) > 0 {
		m := h.net.out[0]
		h.net.out = h.net.out[1:]
		if m.From == 1 {
			chunks++
			if len(m.Payload) > chunkBudget {
				t.Fatalf("chunk of %d bytes, budget %d", len(m.Payload), chunkBudget)
			}
		}
		h.nodes[m.To].Deliver(m)
	}
	if !r.done || chunks < 3 || r.st.CaughtUpKeys != 1500 {
		t.Fatalf("recovery = %+v over %d chunks; want 1500 keys changed over at least 3", r, chunks)
	}
	if want, got := donor.Snapshot(), puller.Snapshot(); !maps.EqualFunc(want, got, func(a, b []byte) bool { return string(a) == string(b) }) {
		t.Fatalf("puller holds %d keys, donor %d: not identical", len(got), len(want))
	}
}

// A crash in the middle of a recovery (Close) stops its timers, and its
// report never comes; the next incarnation over the same engine recovers
// from the start.
func TestRecoveryCrashMidwayThenRecover(t *testing.T) {
	h := recoverySites(t, 2, map[proto.SiteID]*engine.Engine{
		1: replica(map[string]int64{"acct/a": 90, "acct/b": 75}, true, proto.Commit),
		2: inDoubtAt(t, []proto.SiteID{1, 2}),
	})
	first := h.recover(2)
	h.nodes[2].Close()
	if h.sched.Pending() != 0 {
		t.Fatalf("%d timers still armed after Close", h.sched.Pending())
	}
	h.net.out = nil // the inquiry died with the site
	h.restart(2, 2)
	second := h.recover(2)
	h.settle()
	if first.done || !second.done || second.st.ResolvedCommit != 1 || second.st.Replayed != 1 {
		t.Fatalf("first = %+v, second = %+v; want only the second, resolving txn 2", first, second)
	}
}

// A site without a database has nothing to recover.
func TestRecoveryNeedsAnEngine(t *testing.T) {
	h := recoverySites(t, 2, nil)
	if r := h.recover(1); !r.done || r.err == nil {
		t.Fatalf("recovery without an engine = %+v, want an error", r)
	}
}

// A chunk holds the donor's keys from the requested one on, in order,
// unstable ones without a value, and stops at the budget.
func TestRecoverySnapshotChunk(t *testing.T) {
	eng := replica(map[string]int64{"k1": 1, "k2": 2, "k3": 3}, false, 0)
	if !eng.ExecuteAt(9, put("k3"), roster(2)) || !eng.ExecuteAt(10, put("k4"), roster(2)) {
		t.Fatal("txns 9 and 10 did not prepare")
	}
	c := chunk(snapMsg{Req: true, Pull: 7, From: []byte("k2")}, eng)
	var got []string
	for _, e := range c.Entries {
		got = append(got, fmt.Sprintf("%s:%v:%d", e.Key, e.Unstable, len(e.Value)))
	}
	if want := []string{"k2:false:8", "k3:true:0", "k4:true:0"}; c.Pull != 7 || c.More || !slices.Equal(got, want) {
		t.Fatalf("chunk = pull %d, more %v, %v; want pull 7, no more, %v", c.Pull, c.More, got, want)
	}
	big := engine.New("big", &wal.MemStore{})
	for i := 0; i < 1000; i++ {
		big.Put(fmt.Sprintf("k%04d", i), make([]byte, 100))
	}
	if c := chunk(snapMsg{Req: true}, big); !c.More || len(c.Entries) == 0 || len(c.Entries) == 1000 {
		t.Fatalf("a 100 KB snapshot in one chunk of %d entries (more %v)", len(c.Entries), c.More)
	}
}
