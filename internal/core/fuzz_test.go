package core

import (
	"testing"
	"testing/quick"

	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
)

// Robustness: an automaton fed ARBITRARY event sequences — duplicated,
// stray, reordered messages, spurious undeliverable returns and timeouts —
// must never panic and never change a decision once made (the fake env
// panics on conflicting Decide calls). The network can never be trusted to
// deliver only protocol-legal sequences after a partition.

type fuzzEvent struct {
	kind    uint8 // 0 = msg, 1 = ud, 2 = timeout
	from    uint8
	msgKind uint8
}

func driveNode(node proto.Node, env *prototest.Env, events []fuzzEvent) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	node.Start(env)
	kinds := []proto.Kind{
		proto.MsgXact, proto.MsgYes, proto.MsgNo, proto.MsgPrepare,
		proto.MsgAck, proto.MsgCommit, proto.MsgAbort, proto.MsgProbe,
		proto.MsgPre, proto.MsgPreAck, proto.MsgStateRep, proto.MsgSolicit,
	}
	n := len(env.Cfg.Sites)
	for _, ev := range events {
		from := proto.SiteID(int(ev.from)%n + 1)
		kind := kinds[int(ev.msgKind)%len(kinds)]
		switch ev.kind % 3 {
		case 0:
			node.OnMsg(env, env.Msg(from, kind))
		case 1:
			node.OnUndeliverable(env, env.UD(from, kind))
		case 2:
			node.OnTimeout(env)
		}
	}
	return false
}

func fuzzEventsFrom(raw []uint8) []fuzzEvent {
	var evs []fuzzEvent
	for i := 0; i+2 < len(raw) && len(evs) < 200; i += 3 {
		evs = append(evs, fuzzEvent{raw[i], raw[i+1], raw[i+2]})
	}
	return evs
}

func TestSlaveSurvivesArbitraryEvents(t *testing.T) {
	f := func(raw []uint8, transient, noVote, fourPhase bool) bool {
		env := prototest.NewEnv(3, 5)
		if noVote {
			env.Vote = func([]byte) bool { return false }
		}
		node := Protocol{TransientFix: transient, FourPhase: fourPhase}.NewSlave(env.Cfg)
		if driveNode(node, env, fuzzEventsFrom(raw)) {
			return false
		}
		// Terminal states must be consistent with the recorded decision.
		switch node.State() {
		case "c":
			return env.Decision == proto.Commit
		case "a":
			return env.Decision == proto.Abort
		default:
			return env.Decision == proto.None
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestMasterSurvivesArbitraryEvents(t *testing.T) {
	f := func(raw []uint8, replyLate, fourPhase bool) bool {
		env := prototest.NewEnv(1, 4)
		node := Protocol{ReplyToLateProbes: replyLate, FourPhase: fourPhase}.NewMaster(env.Cfg)
		if driveNode(node, env, fuzzEventsFrom(raw)) {
			return false
		}
		switch node.State() {
		case "c1":
			return env.Decision == proto.Commit
		case "a1":
			return env.Decision == proto.Abort
		case "q1", "w1", "p1", "p1u":
			return env.Decision == proto.None
		case "e1":
			return fourPhase && env.Decision == proto.None
		default:
			return false // unknown state name
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
