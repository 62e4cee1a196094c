package cluster_test

import (
	"testing"
	"testing/quick"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/threepc"
)

// Automaton robustness across every protocol in the repository: arbitrary
// event sequences (stray, duplicated, reordered messages; spurious UD
// returns and timeouts) must never panic and never flip a decision — the
// prototest env panics on conflicting Decide calls, which is exactly the
// oracle. This battery found a real bug in an early core.Slave: a decided
// slave still honoured commits arriving in its wt/pt phase.
func TestAllAutomataSurviveArbitraryEvents(t *testing.T) {
	// Every registered protocol, and the ablations no name carries.
	protos := []proto.Protocol{
		core.Protocol{TransientFix: true, ReplyToLateProbes: true},
		core.Protocol{FourPhase: true},
		threepc.Protocol{Rules: threepc.Assignment{MasterP: proto.Commit, SlaveW: proto.Commit}},
	}
	for _, name := range registry.Names() {
		p, _ := registry.Lookup(name)
		protos = append(protos, p)
	}
	kinds := []proto.Kind{
		proto.MsgXact, proto.MsgYes, proto.MsgNo, proto.MsgPrepare,
		proto.MsgAck, proto.MsgCommit, proto.MsgAbort, proto.MsgProbe,
		proto.MsgPre, proto.MsgPreAck, proto.MsgStateReq, proto.MsgStateRep,
		proto.MsgSolicit,
	}
	f := func(raw []uint8, masterSide, noVote bool, pick uint8) (ok bool) {
		p := protos[int(pick)%len(protos)]
		var env *prototest.Env
		var node proto.Node
		if masterSide {
			env = prototest.NewEnv(1, 4)
			node = p.NewMaster(env.Cfg)
		} else {
			env = prototest.NewEnv(2, 4)
			node = p.NewSlave(env.Cfg)
		}
		if noVote {
			env.Vote = func([]byte) bool { return false }
		}
		defer func() {
			if r := recover(); r != nil {
				t.Logf("%s master=%v: panic %v on %v", p.Name(), masterSide, r, raw)
				ok = false
			}
		}()
		node.Start(env)
		n := len(env.Cfg.Sites)
		for i := 0; i+2 < len(raw) && i < 300; i += 3 {
			from := proto.SiteID(int(raw[i+1])%n + 1)
			kind := kinds[int(raw[i+2])%len(kinds)]
			switch raw[i] % 3 {
			case 0:
				node.OnMsg(env, env.Msg(from, kind))
			case 1:
				node.OnUndeliverable(env, env.UD(from, kind))
			case 2:
				node.OnTimeout(env)
			}
		}
		_ = node.State() // must not panic either
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}
