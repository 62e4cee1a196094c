package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
	"termproto/internal/protocol/registry"
	"termproto/internal/protocol/threepc"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// The baseline automata — 2PC and 3PC, pure and augmented — pinned by
// behaviour: a refactor of them leaves every digest here unchanged. A row
// hashes every trace event and per-site result of a RunOne sweep (N 2–4,
// every G2 of slaves, onset 0–8T in steps of T/4, permanent or healing 3T
// later, all-yes or site N votes no, two seeds of uniform latency), or,
// for the script rows, every call a lone automaton makes under every
// short event script.
var baselineDigests = map[string]string{
	"sweep 2pc":       "1ce04a87dcddc0c8",
	"sweep 2pc-ext":   "eaf48cade3f758f5",
	"sweep 3pc":       "cea9db541146f2a8",
	"sweep 3pc-mod":   "cea9db541146f2a8",
	"sweep 3pc-rules": "f6416426c43be288",
	// A pure 3PC master never sends a commit to a slave in w, so the
	// sweep cannot tell 3pc from 3pc-mod; a script can.
	"script 2pc":       "8b187aa472172734",
	"script 2pc-ext":   "421f5e5cd1491f35",
	"script 3pc":       "f2bcdffb25168dec",
	"script 3pc-mod":   "a2a2cf3866cf6743",
	"script 3pc-rules": "4d81e974d815aaf0",
}

// assignmentDigests pins the three-site sweep of every Rule(a)/(b) timeout
// assignment, in AllAssignments order (the search space of experiment E6).
var assignmentDigests = []string{
	"58e8ddfded2abb2f", "7c1aa1b873e90785", "b2ff52e827798b89", "5bdc0d12e05bea25",
	"16d36a7b343df2b2", "1b2d2e29556ed347", "59ea98cf6c764361", "e9fca5ca93e08539",
	"ee6b855830be9ec7", "1b17f0039db92eb7", "1ed6328dec0a9004", "9dc96e9881ece775",
	"83ebce858770b51a", "57133b33e6494640", "6261e32955ccda7b", "1269332cde929d34",
}

var baselineNames = []string{"2pc", "2pc-ext", "3pc", "3pc-mod", "3pc-rules"}

func TestBaselineDigests(t *testing.T) {
	got := map[string]string{}
	for _, name := range baselineNames {
		p, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got["sweep "+name] = sweepDigest(p, 2, 3, 4)
		got["script "+name] = scriptDigest(p)
	}
	var gotAsg []string
	for _, asg := range threepc.AllAssignments() {
		gotAsg = append(gotAsg, sweepDigest(threepc.Protocol{Rules: asg}, 3))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != baselineDigests[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], baselineDigests[k])
		}
	}
	if len(gotAsg) != len(assignmentDigests) {
		t.Fatalf("%d assignment digests, want %d: %q", len(gotAsg), len(assignmentDigests), gotAsg)
	}
	for i := range gotAsg {
		if gotAsg[i] != assignmentDigests[i] {
			t.Errorf("assignment %d: digest %s, want %s", i, gotAsg[i], assignmentDigests[i])
		}
	}
}

func digestOf(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

func sweepDigest(p proto.Protocol, sizes ...int) string {
	h := sha256.New()
	for _, n := range sizes {
		for mask := 1; mask < 1<<(n-1); mask++ {
			var g2 []proto.SiteID
			for i := 0; i < n-1; i++ {
				if mask&(1<<i) != 0 {
					g2 = append(g2, proto.SiteID(i+2))
				}
			}
			for at := sim.Time(0); at <= 8*Tt; at += Tt / 4 {
				for _, heal := range []bool{false, true} {
					sched := partitionAt(at, g2...)
					if heal {
						sched = append(sched, cluster.HealAt(at+3*Tt))
					}
					for _, votes := range []proto.Voter{nil, proto.NoAt(proto.SiteID(n))} {
						for seed := uint64(1); seed <= 2; seed++ {
							opts := cluster.SimOptions{
								Latency: simnet.Uniform{Lo: 300, Hi: 1000}, Seed: seed, RecordTrace: true,
							}
							r, b := cluster.RunOne(cluster.Config{Sites: n, Protocol: p, Schedule: sched, Votes: votes}, opts, cluster.Txn{})
							fmt.Fprintf(h, "n=%d g2=%v at=%d heal=%v no=%v seed=%d\n", n, g2, at, heal, votes != nil, seed)
							for _, ev := range b.Trace().Events() {
								fmt.Fprintf(h, "%+v\n", ev)
							}
							for id := proto.SiteID(1); id <= proto.SiteID(n); id++ {
								if s := r.Sites[id]; s != nil {
									fmt.Fprintf(h, "%d %+v\n", id, *s)
								}
							}
						}
					}
				}
			}
		}
	}
	return digestOf(h)
}

// scriptEnv is the prototest env with the site's timer rules (stopping an
// unarmed timer is no event) and one log of every send, timer operation
// and decision in call order.
type scriptEnv struct {
	*prototest.Env
	log hash.Hash
}

func (e scriptEnv) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	fmt.Fprintf(e.log, "send %v %d;", kind, to)
	e.Env.Send(to, kind, payload)
}

func (e scriptEnv) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.Cfg.Sites {
		if id != e.Cfg.Self {
			e.Send(id, kind, payload)
		}
	}
}

func (e scriptEnv) ResetTimer(d sim.Duration) {
	fmt.Fprintf(e.log, "reset %d;", d)
	e.Env.ResetTimer(d)
}

func (e scriptEnv) StopTimer() {
	if e.TimerActive {
		fmt.Fprint(e.log, "stop;")
	}
	e.Env.StopTimer()
}

func (e scriptEnv) Decide(o proto.Outcome) {
	fmt.Fprintf(e.log, "decide %v;", o)
	e.Env.Decide(o)
}

// scriptDigest runs a master and a slave of a two-site transaction through
// every script of four events, each a message of a 2PC/3PC kind from the
// peer, the return of one sent to it, or a timeout (delivered armed or
// not, as the fuzzer does, and disarming the timer as a firing does), and
// hashes the state after each event and every call the automaton made.
func scriptDigest(p proto.Protocol) string {
	kinds := []proto.Kind{
		proto.MsgXact, proto.MsgYes, proto.MsgNo, proto.MsgPrepare,
		proto.MsgAck, proto.MsgCommit, proto.MsgAbort,
	}
	const events, depth = 15, 4 // 7 messages, 7 returns, a timeout
	h := sha256.New()
	for _, master := range []bool{true, false} {
		for script := 0; script < events*events*events*events; script++ {
			self, peer := proto.SiteID(2), proto.SiteID(1)
			if master {
				self, peer = 1, 2
			}
			env := scriptEnv{Env: prototest.NewEnv(self, 2), log: h}
			var node proto.Node
			if master {
				node = p.NewMaster(env.Cfg)
			} else {
				node = p.NewSlave(env.Cfg)
			}
			fmt.Fprintf(h, "\nmaster=%v script=%d start;", master, script)
			node.Start(env)
			for i, s := 0, script; i < depth; i, s = i+1, s/events {
				switch ev := s % events; {
				case ev < len(kinds):
					node.OnMsg(env, env.Msg(peer, kinds[ev]))
				case ev < 2*len(kinds):
					node.OnUndeliverable(env, env.UD(peer, kinds[ev-len(kinds)]))
				default:
					env.TimerActive = false
					node.OnTimeout(env)
				}
				fmt.Fprintf(h, "=%s;", node.State())
			}
		}
	}
	return digestOf(h)
}
