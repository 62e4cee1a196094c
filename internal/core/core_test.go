package core

import (
	"testing"

	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
)

func TestNames(t *testing.T) {
	if (Protocol{}).Name() != "termination" {
		t.Fatal("name")
	}
	if (Protocol{TransientFix: true}).Name() != "termination+transient" {
		t.Fatal("transient name")
	}
	if (Protocol{FourPhase: true, TransientFix: true}).Name() != "4pc-termination" {
		t.Fatal("four-phase name")
	}
}

// --- master: §5.3 w1 rules ---

func TestMasterW1Timeout(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	m.Start(env)
	if !env.TimerActive || env.TimerDur != 2*env.TVal {
		t.Fatalf("w1 timer = %v, want 2T", env.TimerDur)
	}
	env.ClearSent()
	m.OnTimeout(env)
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("w1 timeout must abort")
	}
	if env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("abort_1..n not sent")
	}
}

func TestMasterW1UDXact(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	m.Start(env)
	m.OnUndeliverable(env, env.UD(3, proto.MsgXact))
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("w1 UD(xact) must abort")
	}
}

// --- master: e1, the four-phase substrate's w1 ---

func masterInE1(t *testing.T, env *prototest.Env) *Master {
	t.Helper()
	m := Protocol{FourPhase: true}.NewMaster(env.Cfg).(*Master)
	m.Start(env)
	for _, s := range env.Slaves() {
		m.OnMsg(env, env.Msg(s, proto.MsgYes))
	}
	if m.State() != "e1" || env.CountSent(proto.MsgPre) != len(env.Slaves()) {
		t.Fatalf("state = %s, want e1 with pre sent", m.State())
	}
	if !env.TimerActive || env.TimerDur != 2*env.TVal {
		t.Fatalf("e1 timer = %v, want 2T", env.TimerDur)
	}
	env.ClearSent()
	return m
}

func TestMasterE1TimeoutAborts(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := masterInE1(t, env)
	m.OnTimeout(env)
	if m.State() != "a1" || env.Decision != proto.Abort || env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("e1 timeout must abort everywhere: no prepare exists yet")
	}
}

func TestMasterE1UDPreAborts(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := masterInE1(t, env)
	m.OnUndeliverable(env, env.UD(3, proto.MsgPre))
	if m.State() != "a1" || env.Decision != proto.Abort || env.TimerActive {
		t.Fatal("e1 UD(pre) must abort and stop the timer")
	}
	if env.CountSent(proto.MsgAbort) != 3 || env.CountSent(proto.MsgPrepare) != 0 {
		t.Fatalf("sent %v, want abort_1..n and no prepare", env.SentKinds())
	}
}

// --- master: §5.3 p1 rules ---

func advanceToP1(t *testing.T, env *prototest.Env, m *Master) {
	t.Helper()
	m.Start(env)
	for _, s := range env.Slaves() {
		m.OnMsg(env, env.Msg(s, proto.MsgYes))
	}
	if m.State() != "p1" {
		t.Fatalf("state = %s, want p1", m.State())
	}
}

func TestMasterP1TimeoutCommits(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	env.ClearSent()
	m.OnTimeout(env)
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatal("p1 timeout with no UD(prepare) must commit")
	}
	if env.CountSent(proto.MsgCommit) != 3 {
		t.Fatal("commit_1..n not sent")
	}
}

// The N−UD = PB test, abort side: the probes come from exactly the slaves
// whose prepares were delivered, so no prepare crossed B. The verdict is
// final the moment the last slave is accounted for — the master aborts on
// the second probe, with the 5T timer stopped, not at the expiry.
func TestMasterUDPBEqualAborts(t *testing.T) {
	env := prototest.NewEnv(1, 4) // slaves 2,3,4
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)

	m.OnUndeliverable(env, env.UD(4, proto.MsgPrepare))
	if m.State() != "p1u" {
		t.Fatalf("state = %s, want p1u", m.State())
	}
	if !env.TimerActive || env.TimerDur != 5*env.TVal {
		t.Fatalf("collect window = %v, want 5T", env.TimerDur)
	}
	// Slaves 2 and 3 (prepare delivered) probe.
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgProbe))
	if m.State() != "p1u" || env.Decision != proto.None || !env.TimerActive {
		t.Fatal("slave 3 is unaccounted for: the window must stay open")
	}
	m.OnMsg(env, env.Msg(3, proto.MsgProbe))
	if m.win.UD().String() != "{4}" || m.win.PB().String() != "{2 3}" {
		t.Fatalf("UD=%s PB=%s", m.win.UD(), m.win.PB())
	}
	if m.State() != "a1" || env.Decision != proto.Abort {
		t.Fatal("N-UD == PB with every slave accounted for must abort at once")
	}
	if env.TimerActive {
		t.Fatal("early close must stop the 5T timer")
	}
	if env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("abort broadcast missing")
	}
	m.OnTimeout(env) // a stale expiry changes nothing
	if env.Decisions != 1 {
		t.Fatal("decided twice")
	}
}

// With a single slave the first bounce already accounts for everyone:
// UD = N, PB = ∅ = N − UD, abort at window open.
func TestMasterSingleSlaveBounceAbortsAtOnce(t *testing.T) {
	env := prototest.NewEnv(1, 2)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	m.OnUndeliverable(env, env.UD(2, proto.MsgPrepare))
	if m.State() != "a1" || env.Decision != proto.Abort || env.TimerActive {
		t.Fatalf("state=%s decision=%v timer=%v, want a1/abort/stopped",
			m.State(), env.Decision, env.TimerActive)
	}
}

// The commit side: slave 3's prepare was delivered but it never probed —
// it must be in G2, so a prepare crossed B.
func TestMasterUDPBUnequalCommits(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)

	m.OnUndeliverable(env, env.UD(4, proto.MsgPrepare))
	m.OnMsg(env, env.Msg(2, proto.MsgProbe)) // only slave 2 probes
	env.ClearSent()
	m.OnTimeout(env)
	if m.State() != "c1" || env.Decision != proto.Commit {
		t.Fatal("N-UD != PB must commit")
	}
}

func TestMasterCollectsMultipleUDs(t *testing.T) {
	env := prototest.NewEnv(1, 5)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	m.OnUndeliverable(env, env.UD(4, proto.MsgPrepare))
	m.OnUndeliverable(env, env.UD(5, proto.MsgPrepare))
	m.OnMsg(env, env.Msg(2, proto.MsgProbe))
	m.OnMsg(env, env.Msg(3, proto.MsgProbe))
	m.OnTimeout(env)
	// UD={4,5}, PB={2,3}: N−UD = {2,3} = PB → abort.
	if env.Decision != proto.Abort {
		t.Fatal("two bounced prepares with matching probes must abort")
	}
}

// An ack straggling in during the window decides nothing, but it is kept:
// the ack set stays truthful, and — like an ack that beat the first UD — it
// entitles its sender, and nobody else, to one solicit.
func TestMasterAcksDuringCollectAbsorbed(t *testing.T) {
	env := prototest.NewEnv(1, 4)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	m.OnMsg(env, env.Msg(3, proto.MsgAck)) // before the first UD: no solicit yet
	if env.CountSent(proto.MsgSolicit) != 0 {
		t.Fatal("solicit outside the window")
	}
	env.ClearSent()
	m.OnUndeliverable(env, env.UD(4, proto.MsgPrepare))
	if len(env.Sent) != 1 || env.Sent[0].Kind != proto.MsgSolicit || env.Sent[0].To != 3 {
		t.Fatalf("window opened holding ack_3 only: sent %v, want solicit_3", env.Sent)
	}
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgAck)) // straggler ack in p1u
	m.OnMsg(env, env.Msg(2, proto.MsgAck)) // a duplicate asks nobody twice
	if m.State() != "p1u" || env.Decision != proto.None {
		t.Fatal("ack during collect window mishandled")
	}
	if got := m.replies.String(); got != "{2 3}" {
		t.Fatalf("acks = %s, want {2 3}", got)
	}
	if len(env.Sent) != 1 || env.Sent[0].Kind != proto.MsgSolicit || env.Sent[0].To != 2 {
		t.Fatalf("sent %v, want exactly solicit_2", env.Sent)
	}
}

func TestMasterLateProbeIgnoredByDefault(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	m.OnMsg(env, env.Msg(2, proto.MsgAck))
	m.OnMsg(env, env.Msg(3, proto.MsgAck))
	if m.State() != "c1" {
		t.Fatal("master should have committed")
	}
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgProbe))
	if len(env.Sent) != 0 {
		t.Fatal("paper protocol must drop late probes")
	}
}

func TestMasterLateProbeAnsweredWithExtension(t *testing.T) {
	env := prototest.NewEnv(1, 3)
	m := Protocol{ReplyToLateProbes: true}.NewMaster(env.Cfg).(*Master)
	advanceToP1(t, env, m)
	m.OnMsg(env, env.Msg(2, proto.MsgAck))
	m.OnMsg(env, env.Msg(3, proto.MsgAck))
	env.ClearSent()
	m.OnMsg(env, env.Msg(2, proto.MsgProbe))
	if env.CountSent(proto.MsgCommit) != 1 {
		t.Fatal("extension must answer a late probe with the decision")
	}
}

// --- slave: §5.3 w rules ---

func startSlaveInW(t *testing.T, env *prototest.Env, p Protocol) *Slave {
	t.Helper()
	s := p.NewSlave(env.Cfg).(*Slave)
	s.Start(env)
	s.OnMsg(env, env.Msg(1, proto.MsgXact))
	if s.State() != "w" {
		t.Fatalf("state = %s, want w", s.State())
	}
	return s
}

func TestSlaveWTimeoutThenSilenceAborts(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := startSlaveInW(t, env, Protocol{})
	s.OnTimeout(env)
	if s.State() != "wt" {
		t.Fatalf("state = %s, want wt", s.State())
	}
	if env.TimerDur != 6*env.TVal {
		t.Fatalf("wt window = %v, want 6T", env.TimerDur)
	}
	s.OnTimeout(env)
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("6T of silence must abort")
	}
}

func TestSlaveWtAcceptsCommitAndAbort(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := startSlaveInW(t, env, Protocol{})
	s.OnTimeout(env)
	s.OnMsg(env, env.Msg(3, proto.MsgCommit)) // from a G2 peer
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("commit in wt must commit")
	}

	env2 := prototest.NewEnv(2, 3)
	s2 := startSlaveInW(t, env2, Protocol{})
	s2.OnTimeout(env2)
	s2.OnMsg(env2, env2.Msg(1, proto.MsgAbort))
	if s2.State() != "a" || env2.Decision != proto.Abort {
		t.Fatal("abort in wt must abort")
	}
}

func TestSlaveUDYesBroadcastsAbort(t *testing.T) {
	env := prototest.NewEnv(2, 4)
	s := startSlaveInW(t, env, Protocol{})
	env.ClearSent()
	s.OnUndeliverable(env, env.UD(1, proto.MsgYes))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("UD(yes) must abort")
	}
	if env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("abort_1..n must go to every other site")
	}
}

// --- slave: e, the four-phase substrate's w ---

func startSlaveInE(t *testing.T, env *prototest.Env) *Slave {
	t.Helper()
	s := startSlaveInW(t, env, Protocol{FourPhase: true})
	env.ClearSent()
	s.OnMsg(env, env.Msg(1, proto.MsgPre))
	if s.State() != "e" || env.CountSent(proto.MsgPreAck) != 1 || env.TimerDur != 3*env.TVal {
		t.Fatalf("state = %s, want e with preack sent and a 3T timer", s.State())
	}
	return s
}

func TestSlaveUDPreAckBroadcastsAbort(t *testing.T) {
	env := prototest.NewEnv(2, 4)
	s := startSlaveInE(t, env)
	env.ClearSent()
	s.OnUndeliverable(env, env.UD(1, proto.MsgPreAck))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("UD(preack) must abort")
	}
	if env.CountSent(proto.MsgAbort) != 3 {
		t.Fatal("abort_1..n must go to every other site")
	}
}

func TestSlaveETimeoutThenSilenceAborts(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := startSlaveInE(t, env)
	s.OnTimeout(env)
	if s.State() != "et" || env.TimerDur != 6*env.TVal {
		t.Fatalf("state = %s timer = %v, want et with a 6T window", s.State(), env.TimerDur)
	}
	s.OnMsg(env, env.Msg(1, proto.MsgPrepare)) // only a decision ends et
	if s.State() != "et" || env.CountSent(proto.MsgAck) != 0 {
		t.Fatal("a timed-out slave must not take a prepare")
	}
	s.OnTimeout(env)
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("6T of silence in et must abort")
	}
}

// --- slave: §5.3 p rules ---

func startSlaveInP(t *testing.T, env *prototest.Env, p Protocol) *Slave {
	t.Helper()
	s := startSlaveInW(t, env, p)
	s.OnMsg(env, env.Msg(1, proto.MsgPrepare))
	if s.State() != "p" {
		t.Fatalf("state = %s, want p", s.State())
	}
	return s
}

func TestSlaveUDAckBroadcastsCommit(t *testing.T) {
	env := prototest.NewEnv(3, 4)
	s := startSlaveInP(t, env, Protocol{})
	env.ClearSent()
	s.OnUndeliverable(env, env.UD(1, proto.MsgAck))
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("UD(ack) must commit")
	}
	if env.CountSent(proto.MsgCommit) != 3 {
		t.Fatal("commit_1..n must go to every other site")
	}
}

func TestSlavePTimeoutProbes(t *testing.T) {
	env := prototest.NewEnv(3, 4)
	s := startSlaveInP(t, env, Protocol{})
	env.ClearSent()
	s.OnTimeout(env)
	if s.State() != "pt" {
		t.Fatalf("state = %s, want pt", s.State())
	}
	if env.CountSent(proto.MsgProbe) != 1 || env.Sent[0].To != 1 {
		t.Fatal("probe must go to the master")
	}
	if env.TimerActive {
		t.Fatal("original protocol must wait indefinitely after probing")
	}
	// UD(probe): we are in G2 → broadcast commit.
	env.ClearSent()
	s.OnUndeliverable(env, env.UD(1, proto.MsgProbe))
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("UD(probe) must commit")
	}
	if env.CountSent(proto.MsgCommit) != 3 {
		t.Fatal("commit broadcast missing")
	}
}

func TestSlavePtAcceptsDecisions(t *testing.T) {
	env := prototest.NewEnv(3, 4)
	s := startSlaveInP(t, env, Protocol{})
	s.OnTimeout(env)
	s.OnMsg(env, env.Msg(1, proto.MsgAbort))
	if s.State() != "a" || env.Decision != proto.Abort {
		t.Fatal("abort in pt must abort")
	}
}

func TestSlaveTransientFixCommitsAfter5T(t *testing.T) {
	env := prototest.NewEnv(3, 4)
	s := startSlaveInP(t, env, Protocol{TransientFix: true})
	s.OnTimeout(env)
	if !env.TimerActive || env.TimerDur != 5*env.TVal {
		t.Fatalf("transient fix timer = %v active=%v, want 5T", env.TimerDur, env.TimerActive)
	}
	s.OnTimeout(env)
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("5T of silence after probe must commit (§6)")
	}
}

func TestSlaveIgnoresOwnBroadcastReturns(t *testing.T) {
	env := prototest.NewEnv(3, 4)
	s := startSlaveInP(t, env, Protocol{})
	s.OnUndeliverable(env, env.UD(1, proto.MsgAck)) // commit broadcast sent
	env.ClearSent()
	// Returns of the broadcast itself must be ignored.
	s.OnUndeliverable(env, env.UD(2, proto.MsgCommit))
	s.OnMsg(env, env.Msg(1, proto.MsgAbort)) // even a stray abort after decision
	if env.Decisions != 1 || env.Decision != proto.Commit {
		t.Fatal("post-decision events altered the slave")
	}
}

func TestSlaveWToCTransitionDefault(t *testing.T) {
	env := prototest.NewEnv(2, 3)
	s := startSlaveInW(t, env, Protocol{})
	s.OnMsg(env, env.Msg(3, proto.MsgCommit))
	if s.State() != "c" || env.Decision != proto.Commit {
		t.Fatal("Fig. 8 w→c must be on by default")
	}

	env2 := prototest.NewEnv(2, 3)
	s2 := startSlaveInW(t, env2, Protocol{DisableWToC: true})
	s2.OnMsg(env2, env2.Msg(3, proto.MsgCommit))
	if s2.State() != "w" || env2.Decision != proto.None {
		t.Fatal("DisableWToC must drop commits in w")
	}
}
