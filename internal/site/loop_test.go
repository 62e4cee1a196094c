package site

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
	"termproto/internal/protocol/twopc"
)

const liveT = 5 * time.Millisecond

// mesh is n site loops joined by in-process links: a localnet's sites
// without the processes and the TCP between them.
type mesh struct {
	loops map[proto.SiteID]*Loop
	nodes map[proto.SiteID]*Node
	links map[proto.SiteID]*Link
}

func newMesh(t *testing.T, n int, protocol proto.Protocol, engs map[proto.SiteID]*engine.Engine) *mesh {
	t.Helper()
	m := &mesh{loops: map[proto.SiteID]*Loop{}, nodes: map[proto.SiteID]*Node{}, links: map[proto.SiteID]*Link{}}
	for i := 1; i <= n; i++ {
		id := proto.SiteID(i)
		lp := NewLoop(Options{ID: id, T: liveT})
		s := lp.Site()
		s.Engine = engs[id]
		m.loops[id], m.nodes[id] = lp, NewNode(s, protocol, roster(n), nil, nil)
		m.links[id] = NewLink(id, liveT, 0, lp.Deliver, func(msg proto.Msg) error {
			dst := m.links[msg.To] // complete before the first Send
			if dst == nil {
				return errors.New("no such site")
			}
			dst.Receive(msg)
			return nil
		})
	}
	for id, lp := range m.loops {
		lp.Start(m.nodes[id], m.links[id])
		t.Cleanup(lp.Close)
		t.Cleanup(m.links[id].Close)
	}
	return m
}

// partition separates g2 from the rest; no arguments heals.
func (m *mesh) partition(g2 ...proto.SiteID) {
	for id, link := range m.links {
		var blocked []proto.SiteID
		for peer := range m.links {
			if slices.Contains(g2, id) != slices.Contains(g2, peer) {
				blocked = append(blocked, peer)
			}
		}
		link.SetBlocked(blocked, time.Time{})
	}
}

// settle waits until every site that learned of tid has decided it — at
// least 10T, so a slow MsgXact cannot hide a participant — and returns
// each site's view (absent: the site never learned of the transaction).
// all is false when the timeout hit first: somebody is blocked.
func (m *mesh) settle(tid proto.TxnID, timeout time.Duration) (views map[proto.SiteID]Status, all bool) {
	start := time.Now()
	for {
		views, all = map[proto.SiteID]Status{}, true
		for id, nd := range m.nodes {
			if st, ok := nd.Txn(tid); ok {
				views[id] = st
				all = all && st.Outcome != proto.None
			}
		}
		if el := time.Since(start); (all && el > 10*liveT) || el > timeout {
			return views, all
		}
		time.Sleep(liveT / 2)
	}
}

func consistent(views map[proto.SiteID]Status) bool {
	seen := proto.None
	for _, st := range views {
		if st.Outcome == proto.None {
			continue
		}
		if seen != proto.None && seen != st.Outcome {
			return false
		}
		seen = st.Outcome
	}
	return true
}

func roster(n int) []proto.SiteID {
	out := make([]proto.SiteID, n)
	for i := range out {
		out[i] = proto.SiteID(i + 1)
	}
	return out
}

func TestLiveFailureFreeCommit(t *testing.T) {
	m := newMesh(t, 4, core.Protocol{}, nil)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(4)})
	views, all := m.settle(1, 100*liveT)
	if !all || len(views) != 4 {
		t.Fatalf("not all sites decided: %v", views)
	}
	for id, st := range views {
		if st.Outcome != proto.Commit {
			t.Fatalf("site %d = %v, want commit", id, st.Outcome)
		}
	}
}

// The scripted no-vote rides the MsgXact envelope to the slave it names.
func TestLiveNoVoteAborts(t *testing.T) {
	m := newMesh(t, 3, core.Protocol{}, nil)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(3), NoVotes: []proto.SiteID{3}})
	views, all := m.settle(1, 100*liveT)
	if !all || len(views) != 3 {
		t.Fatalf("not all sites decided: %v", views)
	}
	for id, st := range views {
		if st.Outcome != proto.Abort {
			t.Fatalf("site %d = %v, want abort", id, st.Outcome)
		}
	}
}

func TestLivePartitionTerminatesConsistently(t *testing.T) {
	// Partition two slaves away mid-protocol; the termination protocol
	// must still decide at every site that learned of the transaction,
	// consistently.
	for _, delay := range []time.Duration{0, liveT, 3 * liveT} {
		m := newMesh(t, 5, core.Protocol{TransientFix: true}, nil)
		m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(5)})
		time.AfterFunc(delay, func() { m.partition(4, 5) })
		views, all := m.settle(1, 200*liveT)
		if !all {
			t.Fatalf("delay %v: undecided sites: %v", delay, views)
		}
		if !consistent(views) {
			t.Fatalf("delay %v: INCONSISTENT outcomes: %v", delay, views)
		}
	}
}

func TestLiveTransientPartitionHeals(t *testing.T) {
	m := newMesh(t, 4, core.Protocol{TransientFix: true}, nil)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(4)})
	// Let the xact round land before partitioning, so sites 3 and 4 are
	// participants when the boundary rises.
	time.AfterFunc(2*liveT, func() { m.partition(3, 4) })
	time.AfterFunc(12*liveT, func() { m.partition() })
	views, all := m.settle(1, 300*liveT)
	if !all || len(views) != 4 {
		t.Fatalf("undecided after heal: %v", views)
	}
	if !consistent(views) {
		t.Fatalf("inconsistent after heal: %v", views)
	}
}

func TestLiveTwoPCBlocksUnderPartition(t *testing.T) {
	// The motivating contrast, live: pure 2PC leaves sites undecided.
	m := newMesh(t, 3, twopc.Protocol{}, nil)
	m.partition(3)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(3)})
	views, all := m.settle(1, 50*liveT)
	if all {
		t.Fatalf("2PC decided everywhere under a partition: %v", views)
	}
	if !consistent(views) {
		t.Fatalf("2PC inconsistent: %v", views)
	}
}

// recoverOn runs site id's recovery on its loop and waits for it.
func (m *mesh) recoverOn(t *testing.T, id proto.SiteID) Stats {
	t.Helper()
	done := make(chan Stats, 1)
	m.loops[id].Do(func() {
		m.nodes[id].Recover(func(st Stats) {
			if st.Err != "" {
				t.Errorf("site %d %s", id, st.Err)
			}
			done <- st
		})
	})
	return <-done
}

// retryOn asks again, on site id's loop, about what it holds in doubt, and
// waits until an answer resolved all of it or timeout passed; it returns
// what is left.
func (m *mesh) retryOn(id proto.SiteID, timeout time.Duration) []engine.InDoubt {
	m.loops[id].Do(m.nodes[id].RetryInDoubt)
	for deadline := time.Now().Add(timeout); ; time.Sleep(liveT / 4) {
		if left := m.nodes[id].Unresolved(); len(left) == 0 || time.Now().After(deadline) {
			return left
		}
	}
}

// The recovery inquiry round over real messages between loops: across a
// partition every inquiry bounces and the transaction stays in doubt; once
// healed, asking again learns the peers' durable commit.
func TestLiveInquire(t *testing.T) {
	payload := engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "k", Delta: -1}})
	engs := make(map[proto.SiteID]*engine.Engine, 4)
	for i := 1; i <= 4; i++ {
		e := engine.New(fmt.Sprintf("s%d", i), &wal.MemStore{})
		e.PutInt("k", 100)
		if i < 4 {
			e.Commit(1) // decided: the durable answer
		} else if !e.ExecuteAt(1, payload, roster(4)) {
			t.Fatal("txn 1 did not prepare at site 4")
		}
		engs[proto.SiteID(i)] = e
	}
	m := newMesh(t, 4, core.Protocol{TransientFix: true}, engs)
	m.partition(4)
	if st := m.recoverOn(t, 4); st.InDoubt != 1 || st.Unresolved != 1 {
		t.Fatalf("recovery behind the cut = %v, want txn 1 left in doubt", st)
	}
	m.partition()
	if left := m.retryOn(4, 4*liveT); len(left) != 0 {
		t.Fatalf("after the heal %+v still in doubt, want txn 1 committed", left)
	}
	if o, _ := engs[4].Outcome(1); o != proto.Commit {
		t.Fatalf("site 4 durable outcome = %v, want commit", o)
	}
}

// A site without a database has no durable decision to offer: inquiries
// get silence, never volatile automaton bookkeeping — the same answer the
// deterministic backend gives — and the asker gives up after 2T. The
// setup waits for sites 1 and 2 to decide, not to commit: on a loaded box
// the master's w1 timer can beat the votes, and an abort leaves an
// engine-less site as little durable state as a commit.
func TestLiveInquireNeedsDurableState(t *testing.T) {
	e := engine.New("s3", &wal.MemStore{})
	if !e.ExecuteAt(1, engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "k", Value: []byte("v")}}), roster(3)) {
		t.Fatal("txn 1 did not prepare at site 3")
	}
	m := newMesh(t, 3, core.Protocol{TransientFix: true}, map[proto.SiteID]*engine.Engine{3: e})
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: []proto.SiteID{1, 2}})
	for _, id := range []proto.SiteID{1, 2} {
		for deadline := time.Now().Add(100 * liveT); ; time.Sleep(liveT / 4) {
			if st, _ := m.nodes[id].Txn(1); st.Outcome != proto.None {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("site %d did not decide txn 1: %+v", id, st)
			}
		}
	}
	start := time.Now()
	if st := m.recoverOn(t, 3); st.Unresolved != 1 || st.ResolvedCommit+st.ResolvedAbort != 0 {
		t.Fatalf("recovery = %v: an engine-less site answered from volatile state", st)
	}
	if el := time.Since(start); el < 2*liveT {
		t.Fatalf("gave up after %v, before 2T", el)
	}
}

// Automata spawn only at a transaction's participants: the master at
// submission, each slave from the envelope.
func TestLiveAutomataSpawned(t *testing.T) {
	m := newMesh(t, 4, core.Protocol{TransientFix: true}, nil)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: []proto.SiteID{1, 2, 3}})
	m.loops[2].Submit(Spec{TID: 2, Master: 2, Sites: []proto.SiteID{2, 3, 4}})
	for _, tid := range []proto.TxnID{1, 2} {
		if _, all := m.settle(tid, 200*liveT); !all {
			t.Fatalf("txn %d undecided", tid)
		}
	}
	for id, want := range map[proto.SiteID]int{1: 1, 2: 2, 3: 2, 4: 1} {
		if got := len(m.nodes[id].Txns()); got != want {
			t.Fatalf("site %d spawned %d automata, want %d", id, got, want)
		}
	}
}

// A closed loop is a crashed site: its peers' messages are lost, its view
// stays readable, and closing it again is harmless.
func TestLiveStopIdempotent(t *testing.T) {
	m := newMesh(t, 2, core.Protocol{}, nil)
	m.loops[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(2)})
	m.settle(1, 100*liveT)
	m.loops[2].Close()
	m.loops[2].Close()
	if st, ok := m.nodes[2].Txn(1); !ok || st.Outcome != proto.Commit {
		t.Fatalf("closed loop's view = %+v/%v, want the commit it decided", st, ok)
	}
	m.loops[2].Deliver(proto.Msg{TID: 1, From: 1, To: 2, Kind: proto.MsgCommit}) // must not block
}
