package threepc

import (
	"testing"

	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
)

func TestNames(t *testing.T) {
	if (Protocol{}).Name() != "3pc" || (Protocol{Modified: true}).Name() != "3pc-mod" ||
		(Protocol{Rules: RuleA()}).Name() != "3pc-rules" {
		t.Fatal("names")
	}
}

func TestMasterThreePhases(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{}.NewMaster(env.Cfg)
	m.Start(env)
	if m.State() != "w1" || env.CountSent(proto.MsgXact) != 2 {
		t.Fatal("phase 1 wrong")
	}
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	if m.State() != "p1" || env.CountSent(proto.MsgPrepare) != 2 {
		t.Fatalf("phase 2 wrong: state=%s", m.State())
	}
	if env.Decision != proto.None {
		t.Fatal("decided too early")
	}
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgAck))
	m.OnMsg(env, env.Msg(3, proto.MsgAck))
	if m.State() != "c1" || env.CountSent(proto.MsgCommit) != 2 || env.Decision != proto.Commit {
		t.Fatalf("phase 3 wrong: state=%s decision=%v", m.State(), env.Decision)
	}
}

func TestMasterAbortOnNo(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := Protocol{}.NewMaster(env.Cfg)
	m.Start(env)
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgNo))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("no-vote did not abort")
	}
	if env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("aborts not broadcast")
	}
	// Prepares were never sent.
	if env.CountSent(proto.MsgPrepare) != 0 {
		t.Fatal("prepares sent despite abort")
	}
}

func TestMasterIgnoresAckInW1(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{}.NewMaster(env.Cfg)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgAck)) // stray: no prepare sent yet
	if m.State() != "w1" {
		t.Fatal("stray ack advanced the master")
	}
}

func TestSlavePhases(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := Protocol{}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if s.State() != "w" || env.CountSent(proto.MsgYes) != 1 {
		t.Fatal("vote phase wrong")
	}
	s.OnMsg(env, env.Msg(1, proto.MsgPrepare))
	if s.State() != "p" || env.CountSent(proto.MsgAck) != 1 {
		t.Fatal("prepare phase wrong")
	}
	s.OnMsg(env, env.Msg(1, proto.MsgCommit))
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("commit phase wrong")
	}
}

func TestSlaveAbortInWAndP(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := Protocol{}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnMsg(env, env.Msg(1, proto.MsgAbort))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("abort in w failed")
	}

	env2 := prototest.NewEnv(3, 3)
	s2 := Protocol{}.NewSlave(env2.Cfg)
	s2.Start(env2)
	s2.OnMsg(env2, env2.Msg(1, proto.MsgXact))
	s2.OnMsg(env2, env2.Msg(1, proto.MsgPrepare))
	// No master sends it, but a lone slave in p takes an abort too.
	s2.OnMsg(env2, env2.Msg(1, proto.MsgAbort))
	if s2.State() != "a" || env2.Decision != proto.Abort {
		t.Fatal("abort in p failed")
	}
}

// The Figure 3 slave drops a commit received in w; the Figure 8 slave
// takes it.
func TestWToCommitOnlyWhenModified(t *testing.T) {
	plain := prototest.NewEnv(2, 3)
	s := Protocol{}.NewSlave(plain.Cfg)
	s.Start(plain)
	s.OnMsg(plain, plain.Msg(1, proto.MsgXact))
	s.OnMsg(plain, plain.Msg(1, proto.MsgCommit))
	if s.State() != "w" || plain.Decision != proto.None {
		t.Fatal("Fig. 3 slave must drop a commit in w")
	}

	mod := prototest.NewEnv(2, 3)
	sm := Protocol{Modified: true}.NewSlave(mod.Cfg)
	sm.Start(mod)
	sm.OnMsg(mod, mod.Msg(1, proto.MsgXact))
	sm.OnMsg(mod, mod.Msg(1, proto.MsgCommit))
	if sm.State() != "c" || mod.Decision != proto.Commit {
		t.Fatal("Fig. 8 slave must commit from w")
	}
}

func TestSlaveNoVote(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	env.Vote = func([]byte) bool { return false }
	s := Protocol{}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if s.State() != "a" || env.CountSent(proto.MsgNo) != 1 || env.Decision != proto.Abort {
		t.Fatal("no-vote path wrong")
	}
}

func TestPureProtocolIgnoresFailures(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := Protocol{}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnTimeout(env)
	s.OnUndeliverable(env, env.UD(1, proto.MsgYes))
	if s.State() != "w" || env.Decision != proto.None {
		t.Fatal("pure 3PC slave reacted to failures")
	}

	envM := prototest.NewEnv(1, 3)
	m := Protocol{}.NewMaster(envM.Cfg)
	m.Start(envM)
	m.OnTimeout(envM)
	m.OnUndeliverable(envM, envM.UD(2, proto.MsgXact))
	if m.State() != "w1" || envM.Decision != proto.None {
		t.Fatal("pure 3PC master reacted to failures")
	}
}

func TestMasterNoLocalVote(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	env.Vote = func([]byte) bool { return false }
	m := Protocol{}.NewMaster(env.Cfg)
	m.Start(env)
	if m.State() != "a1" || env.Decision != proto.Abort || len(env.Sent) != 0 {
		t.Fatal("master local no-vote path wrong")
	}
}

// --- the Rule(a)/(b) augmentation (§3) ---

func TestRuleAAssignment(t *testing.T) {
	a := RuleA()
	if a.MasterW != proto.Abort || a.MasterP != proto.Abort ||
		a.SlaveW != proto.Abort || a.SlaveP != proto.Commit {
		t.Fatalf("RuleA = %+v, want abort/abort/abort/commit", a)
	}
}

func TestAllAssignmentsEnumeration(t *testing.T) {
	all := AllAssignments()
	if len(all) != 16 {
		t.Fatalf("got %d assignments, want 2^4 = 16", len(all))
	}
	seen := map[Assignment]bool{}
	for _, a := range all {
		if seen[a] {
			t.Fatalf("duplicate assignment %+v", a)
		}
		seen[a] = true
		for _, o := range []proto.Outcome{a.MasterW, a.MasterP, a.SlaveW, a.SlaveP} {
			if o != proto.Commit && o != proto.Abort {
				t.Fatalf("assignment contains %v", o)
			}
		}
	}
}

// The paper's Rule(a) targets: slave w times out to abort, slave p times
// out to commit.
func TestSlaveTimeoutTargets(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := Protocol{Rules: RuleA()}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnTimeout(env)
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("slave w timeout must abort under Rule(a)")
	}

	env2 := prototest.NewEnv(3, 3)
	s2 := Protocol{Rules: RuleA()}.NewSlave(env2.Cfg)
	s2.Start(env2)
	s2.OnMsg(env2, env2.Msg(1, proto.MsgXact))
	s2.OnMsg(env2, env2.Msg(1, proto.MsgPrepare))
	s2.OnTimeout(env2)
	if s2.State() != "c" || env2.Decision != proto.Commit {
		t.Fatal("slave p timeout must commit under Rule(a)")
	}
}

func TestMasterTimeoutTargets(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{Rules: RuleA()}.NewMaster(env.Cfg)
	m.Start(env)
	m.OnTimeout(env)
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("master w1 timeout must abort")
	}

	env2 := prototest.NewEnv(1, 3)
	m2 := Protocol{Rules: RuleA()}.NewMaster(env2.Cfg)
	m2.Start(env2)
	m2.OnMsg(env2, env2.Msg(2, proto.MsgYes))
	m2.OnMsg(env2, env2.Msg(3, proto.MsgYes))
	if m2.State() != "p1" {
		t.Fatalf("state = %s, want p1", m2.State())
	}
	m2.OnTimeout(env2)
	if m2.State() != "a1" || env2.Decision != proto.Abort {
		t.Fatal("master p1 timeout must abort under Rule(a)")
	}
}

func TestUndeliverableRuleB(t *testing.T) {
	// Slave in p, UD(ack): receiver was master p1 (timeout→abort) → abort.
	env := prototest.NewEnv(2, 3)
	s := Protocol{Rules: RuleA()}.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnMsg(env, env.Msg(1, proto.MsgPrepare))
	s.OnUndeliverable(env, env.UD(1, proto.MsgAck))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("UD(ack) must follow master-p1's timeout to abort")
	}

	// Master in p1, UD(prepare): receiver was slave w (timeout→abort).
	envM := prototest.NewEnv(1, 3)
	m := Protocol{Rules: RuleA()}.NewMaster(envM.Cfg)
	m.Start(envM)
	m.OnMsg(envM, envM.Msg(2, proto.MsgYes))
	m.OnMsg(envM, envM.Msg(3, proto.MsgYes))
	m.OnUndeliverable(envM, envM.UD(3, proto.MsgPrepare))
	if m.State() != "a1" || envM.Decision != proto.Abort {
		t.Fatal("UD(prepare) must follow slave-w's timeout to abort")
	}
}

func TestCustomAssignment(t *testing.T) {
	p := Protocol{Rules: Assignment{
		MasterW: proto.Commit, MasterP: proto.Commit,
		SlaveW: proto.Commit, SlaveP: proto.Abort,
	}}
	env := prototest.NewEnv(2, 3)
	s := p.NewSlave(env.Cfg)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	s.OnTimeout(env)
	if env.Decision != proto.Commit {
		t.Fatal("custom SlaveW assignment not honoured")
	}

	env2 := prototest.NewEnv(1, 3)
	m := p.NewMaster(env2.Cfg)
	m.Start(env2)
	m.OnTimeout(env2)
	if env2.Decision != proto.Commit {
		t.Fatal("custom MasterW assignment not honoured")
	}
}

func TestHappyPathStillWorks(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{Rules: RuleA()}.NewMaster(env.Cfg)
	m.Start(env)
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	m.OnMsg(env, env.Msg(2, proto.MsgAck))
	m.OnMsg(env, env.Msg(3, proto.MsgAck))
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatal("failure-free commit broken")
	}
	if env.TimerActive {
		t.Fatal("timer leaked past the decision")
	}
}

// A partial Rules value augments only the states it names: the others arm
// no timer and ignore timeouts and returns, and nothing decides None (the
// prototest env panics on it, as the site runtime does).
func TestPartialRulesAugmentOnlyTheirStates(t *testing.T) {
	p := Protocol{Rules: Assignment{MasterP: proto.Commit}}
	env := prototest.NewEnv(1, 3)
	m := p.NewMaster(env.Cfg)
	m.Start(env)
	m.OnTimeout(env)
	m.OnUndeliverable(env, env.UD(2, proto.MsgXact))
	if env.TimerActive || m.State() != "w1" || env.Decisions != 0 {
		t.Fatalf("w1 without a target: timer=%v state=%s decisions=%d", env.TimerActive, m.State(), env.Decisions)
	}
	m.OnMsg(env, env.Msg(2, proto.MsgYes))
	m.OnMsg(env, env.Msg(3, proto.MsgYes))
	m.OnUndeliverable(env, env.UD(3, proto.MsgPrepare)) // no slave-w target
	if !env.TimerActive || m.State() != "p1" {
		t.Fatalf("p1 with a target: timer=%v state=%s", env.TimerActive, m.State())
	}
	m.OnTimeout(env)
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatalf("p1 timeout: state=%s decision=%v, want c1/commit", m.State(), env.Decision)
	}

	envS := prototest.NewEnv(2, 3)
	s := p.NewSlave(envS.Cfg)
	s.OnMsg(envS, envS.Msg(1, proto.MsgXact))
	s.OnTimeout(envS)
	s.OnUndeliverable(envS, envS.UD(1, proto.MsgYes)) // no master-w1 target
	if envS.TimerActive || s.State() != "w" || envS.Decisions != 0 {
		t.Fatalf("w without a target: timer=%v state=%s decisions=%d", envS.TimerActive, s.State(), envS.Decisions)
	}
	s.OnMsg(envS, envS.Msg(1, proto.MsgPrepare))
	s.OnUndeliverable(envS, envS.UD(1, proto.MsgAck)) // the master-p1 target
	if s.State() != "c" || envS.Decision != proto.Commit {
		t.Fatalf("UD(ack): state=%s decision=%v, want c/commit", s.State(), envS.Decision)
	}
}
