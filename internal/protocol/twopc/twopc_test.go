package twopc

import (
	"testing"

	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
)

func newMaster(n int) (*prototest.Env, proto.Node) {
	env := prototest.NewEnv(1, n)
	node := Protocol{}.NewMaster(env.Cfg)
	return env, node
}

func newSlave(self proto.SiteID, n int) (*prototest.Env, proto.Node) {
	env := prototest.NewEnv(self, n)
	node := Protocol{}.NewSlave(env.Cfg)
	return env, node
}

func newExtMaster(n int) (*prototest.Env, proto.Node) {
	env := prototest.NewEnv(1, n)
	return env, Protocol{Extended: true}.NewMaster(env.Cfg)
}

func newExtSlave(self proto.SiteID, n int) (*prototest.Env, proto.Node) {
	env := prototest.NewEnv(self, n)
	return env, Protocol{Extended: true}.NewSlave(env.Cfg)
}

func TestName(t *testing.T) {
	if (Protocol{}).Name() != "2pc" {
		t.Fatal("name")
	}
}

func TestMasterHappyPath(t *testing.T) {
	env, m := newMaster(3)
	m.Start(env)
	if m.State() != "w1" {
		t.Fatalf("state = %s, want w1", m.State())
	}
	if got := env.CountSent(proto.MsgXact); got != 2 {
		t.Fatalf("xacts sent = %d, want 2", got)
	}
	if env.TimerActive {
		t.Fatal("pure 2PC must not arm timers")
	}
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	if m.State() != "w1" || env.Decision != proto.None {
		t.Fatal("decided before all votes")
	}
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatalf("state=%s decision=%v, want c1/commit", m.State(), env.Decision)
	}
	if got := env.CountSent(proto.MsgCommit); got != 2 {
		t.Fatalf("commits sent = %d, want 2", got)
	}
}

func TestMasterDuplicateYesCountsOnce(t *testing.T) {
	env, m := newMaster(3)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	if m.State() != "w1" {
		t.Fatal("duplicate yes from one slave advanced the master")
	}
}

func TestMasterAbortOnNo(t *testing.T) {
	env, m := newMaster(3)
	m.Start(env)
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgNo))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("no-vote did not abort")
	}
	if got := env.CountSent(proto.MsgAbort); got != 2 {
		t.Fatalf("aborts sent = %d, want 2", got)
	}
	// A late yes is absorbed.
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	if env.Decisions != 1 {
		t.Fatal("late vote changed the decision")
	}
}

func TestMasterLocalNoVote(t *testing.T) {
	env, m := newMaster(3)
	env.Vote = func([]byte) bool { return false }
	m.Start(env)
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("master no-vote did not abort")
	}
	if len(env.Sent) != 0 {
		t.Fatal("master sent messages despite local abort")
	}
}

func TestMasterIgnoresFailureEvents(t *testing.T) {
	env, m := newMaster(3)
	m.Start(env)
	m.OnTimeout(env)                                 // no timeout transitions in Fig. 1
	m.OnUndeliverable(env, env.UD(3, proto.MsgXact)) // no UD transitions either
	if m.State() != "w1" || env.Decision != proto.None {
		t.Fatal("pure 2PC reacted to failure events")
	}
}

func TestSlaveVotesYes(t *testing.T) {
	env, s := newSlave(2, 3)
	s.Start(env)
	if s.State() != "q" {
		t.Fatal("slave should wait in q")
	}
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if s.State() != "w" {
		t.Fatalf("state = %s, want w", s.State())
	}
	if got := env.CountSent(proto.MsgYes); got != 1 {
		t.Fatalf("yes sent = %d, want 1", got)
	}
	s.OnMsg(env, env.Msg(1, proto.MsgCommit))
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("commit not applied")
	}
}

func TestSlaveVotesNo(t *testing.T) {
	env, s := newSlave(3, 3)
	env.Vote = func([]byte) bool { return false }
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("no-vote did not abort locally")
	}
	if got := env.CountSent(proto.MsgNo); got != 1 {
		t.Fatalf("no sent = %d, want 1", got)
	}
}

func TestSlaveAbortInW(t *testing.T) {
	env, s := newSlave(2, 3)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnMsg(env, env.Msg(1, proto.MsgAbort))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("abort in w not applied")
	}
}

func TestSlaveIgnoresStrays(t *testing.T) {
	env, s := newSlave(2, 3)
	s.Start(env)
	// Commit before xact: ignored (q has no such transition).
	s.OnMsg(env, env.Msg(1, proto.MsgCommit))
	if s.State() != "q" {
		t.Fatal("q accepted a commit")
	}
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	// Prepare is not part of 2PC.
	s.OnMsg(env, env.Msg(1, proto.MsgPrepare))
	if s.State() != "w" {
		t.Fatal("w accepted a prepare")
	}
	// Failure events are ignored.
	s.OnTimeout(env)
	s.OnUndeliverable(env, env.UD(1, proto.MsgYes))
	if s.State() != "w" || env.Decision != proto.None {
		t.Fatal("pure 2PC slave reacted to failure events")
	}
}

// --- the extended protocol (Fig. 2) ---

func TestMasterEntersPrepareStateAfterCommits(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	if !env.TimerActive || env.TimerDur != 2*env.TVal {
		t.Fatalf("w1 timer = %v active=%v, want 2T", env.TimerDur, env.TimerActive)
	}
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	// Fig. 2: after sending commits the master is in the prepare state p1,
	// not yet committed.
	if m.State() != "p1" {
		t.Fatalf("state = %s, want p1", m.State())
	}
	if env.Decision != proto.None {
		t.Fatal("master decided before its p1 timeout")
	}
	if got := env.CountSent(proto.MsgCommit); got != 2 {
		t.Fatalf("commits sent = %d, want 2", got)
	}
	// p1 timeout with no UD(commit): commit.
	m.OnTimeout(env)
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatalf("p1 timeout: state=%s decision=%v", m.State(), env.Decision)
	}
}

func TestMasterUDCommitAborts(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	m.OnUndeliverable(env, env.UD(3, proto.MsgCommit))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatalf("UD(commit) in p1: state=%s decision=%v, want a1/abort", m.State(), env.Decision)
	}
}

func TestMasterTimeoutInW1Aborts(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgYes)) // one vote missing
	m.OnTimeout(env)
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("w1 timeout did not abort")
	}
}

func TestMasterUDXactAborts(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	m.OnUndeliverable(env, env.UD(3, proto.MsgXact))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("UD(xact) did not abort")
	}
}

func TestSlaveTimeoutInWAborts(t *testing.T) {
	env, s := newExtSlave(2, 3)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if !env.TimerActive || env.TimerDur != 3*env.TVal {
		t.Fatalf("w timer = %v, want 3T", env.TimerDur)
	}
	s.OnTimeout(env)
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("w timeout did not abort (Rule a for the multisite-broken case)")
	}
}

func TestSlaveUDYesAborts(t *testing.T) {
	env, s := newExtSlave(2, 3)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnUndeliverable(env, env.UD(1, proto.MsgYes))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("UD(yes) did not abort (Rule b)")
	}
}

func TestSlaveCommitStopsTimer(t *testing.T) {
	env, s := newExtSlave(2, 3)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnMsg(env, env.Msg(1, proto.MsgCommit))
	if env.TimerActive {
		t.Fatal("timer still active after decision")
	}
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("commit not applied")
	}
	// Late failure events after the decision are ignored.
	s.OnTimeout(env)
	s.OnUndeliverable(env, env.UD(1, proto.MsgYes))
	if env.Decisions != 1 {
		t.Fatal("post-decision events changed the outcome")
	}
}

func TestMasterNoVotePath(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgNo))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("no-vote did not abort")
	}
	if got := env.CountSent(proto.MsgAbort); got != 2 {
		t.Fatalf("aborts sent = %d, want 2", got)
	}
	if env.TimerActive {
		t.Fatal("timer left active after abort")
	}
}

func TestNameAndLocalVotes(t *testing.T) {
	if (Protocol{Extended: true}).Name() != "2pc-ext" {
		t.Fatal("name")
	}
	// Master's own no-vote aborts before anything is sent.
	env, m := newExtMaster(3)
	env.Vote = func([]byte) bool { return false }
	m.Start(env)
	if m.State() != "a1" || env.Decision != proto.Abort || len(env.Sent) != 0 {
		t.Fatal("master local no-vote path wrong")
	}

	// Slave no-vote sends "no" and aborts locally.
	envS, s := newExtSlave(2, 3)
	envS.Vote = func([]byte) bool { return false }
	s.Start(envS)
	s.OnMsg(envS, envS.Msg(1, proto.MsgXact))
	if s.State() != "a" || envS.CountSent(proto.MsgNo) != 1 || envS.Decision != proto.Abort {
		t.Fatal("slave no-vote path wrong")
	}
}

func TestStrayMessagesIgnored(t *testing.T) {
	// A slave in q drops non-xact messages; a decided slave drops votes.
	env, s := newExtSlave(2, 3)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgCommit)) // pre-xact commit: ignored
	if s.State() != "q" {
		t.Fatal("q accepted a stray message")
	}
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnMsg(env, env.Msg(1, proto.MsgAbort))
	s.OnMsg(env, env.Msg(1, proto.MsgCommit)) // post-decision: ignored
	if env.Decisions != 1 || env.Decision != proto.Abort {
		t.Fatal("post-decision message changed the slave")
	}

	// Master past w1 drops late votes and unrelated UD returns.
	envM, m := newExtMaster(3)
	m.Start(envM)
	m.OnMsg(envM, envM.Msg(2, proto.MsgYes))
	m.OnMsg(envM, envM.Msg(3, proto.MsgYes))            // -> p1
	m.OnMsg(envM, envM.Msg(2, proto.MsgYes))            // late duplicate: ignored
	m.OnUndeliverable(envM, envM.UD(3, proto.MsgAbort)) // unrelated UD: ignored
	if m.State() != "p1" || envM.Decision != proto.None {
		t.Fatalf("stray events disturbed p1: %s", m.State())
	}
}

func TestDuplicateYesDoesNotAdvance(t *testing.T) {
	env, m := newExtMaster(3)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	if m.State() != "w1" {
		t.Fatal("duplicate yes advanced the master")
	}
}
