// Package threepc implements Skeen's centralized three-phase commit
// protocol as presented in Figure 3 of Huang & Li (ICDE 1987), the
// modified slave automaton of Figure 8, and the Rule(a)/(b) augmentation
// that Section 3 proves inadequate.
//
// Master FSA: q1 → w1 (send xact) → p1 (all yes / send prepare) → c1
// (all ack / send commit), with w1 → a1 (any no / send abort).
// Slave FSA: q → w (xact / send yes) or a (xact / send no);
// w → p (prepare / send ack), w → a (abort); p → c (commit).
//
// 3PC satisfies both Lemma 1 and Lemma 2 of the paper — the buffer state p
// separates the wait state from the commit state, so no local state has
// both a commit and an abort in its concurrency set and no noncommittable
// state has a commit in its concurrency set. Unaugmented it still blocks
// under partitions (it has no timeout transitions); the paper's
// termination protocol in internal/core, which runs its own automaton over
// the same rounds, is what makes it resilient.
//
// The Modified option adds the Figure 8 transition w → c on receipt of a
// commit message. Section 5.3 shows why it is needed: a slave in G2 that
// never received a prepare can be sent its one-and-only commit by a G2 peer
// while still in w, and without this transition that commit is lost.
//
// # Rule(a)/(b) augmentation (§3, Lemma 3)
//
// Rules gives each waiting state a timeout target. Rule(a) derives one
// from the 3PC concurrency sets (RuleA, the paper's Section 3 second
// observation):
//
//	master w1 --timeout--> a1   (no commit in C(w1))
//	master p1 --timeout--> a1   (no site can have committed while the
//	                             master is still in p1)
//	slave  w  --timeout--> a    (abort ∈ C(w), no commit — Lemma 2 holds)
//	slave  p  --timeout--> c    (commit ∈ C(p): another slave may have
//	                             received its commit already)
//
// Rule(b) pairs undeliverable transitions with the timeout transition of
// the receiving state: UD(xact), UD(prepare) → the slave-w target at the
// master; UD(yes), UD(ack) → the master-w1 and master-p1 targets at a
// slave. Timeouts are 2T at the master and 3T at slaves (Fig. 5).
//
// The paper's counterexample (experiment E5): the master is in p1 and the
// partition renders prepare_3 undeliverable. Site 3 times out in w_3 and
// aborts; site 2, already in p_2, times out and commits. Lemma 3
// generalizes this: no augmentation of this form can work, which experiment
// E6 verifies by exhaustive search over AllAssignments.
package threepc

import (
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Assignment chooses the target outcome of a timeout (and its paired
// undeliverable transition) for each waiting state. A None target gives
// its state no timer and no such transition; the zero Assignment is
// Figure 3's, with none at all.
type Assignment struct {
	MasterW proto.Outcome // master w1 timeout target
	MasterP proto.Outcome // master p1 timeout target
	SlaveW  proto.Outcome // slave w timeout target
	SlaveP  proto.Outcome // slave p timeout target
}

// RuleA is the assignment Rule(a) derives from the 3PC concurrency sets.
func RuleA() Assignment {
	return Assignment{
		MasterW: proto.Abort,
		MasterP: proto.Abort,
		SlaveW:  proto.Abort,
		SlaveP:  proto.Commit,
	}
}

// AllAssignments enumerates every complete timeout assignment, the search
// space of the Lemma 3 experiment (E6).
func AllAssignments() []Assignment {
	outcomes := []proto.Outcome{proto.Commit, proto.Abort}
	var all []Assignment
	for _, mw := range outcomes {
		for _, mp := range outcomes {
			for _, sw := range outcomes {
				for _, sp := range outcomes {
					all = append(all, Assignment{mw, mp, sw, sp})
				}
			}
		}
	}
	return all
}

// Protocol builds three-phase commit automata. The zero value is the pure
// Figure 3 protocol.
type Protocol struct {
	// Modified selects the Figure 8 slave automaton with the w → c
	// transition.
	Modified bool
	// Rules augments the automata with Rule(a) timeouts and Rule(b)
	// undeliverable transitions to these targets. The paper's
	// augmentations (RuleA, and each of AllAssignments) set all four; a
	// state whose target is None keeps its Figure 3 behaviour, so no
	// value decides None.
	Rules Assignment
}

// Name implements proto.Protocol.
func (p Protocol) Name() string {
	switch {
	case p.Rules != Assignment{}:
		return "3pc-rules"
	case p.Modified:
		return "3pc-mod"
	}
	return "3pc"
}

// NewMaster implements proto.Protocol.
func (p Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &node{cfg: cfg, opts: p, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (p Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &node{cfg: cfg, opts: p, state: "q"}
}

// node is the master automaton (states q1 w1 p1 c1 a1) or a slave's
// (q w p c a); its state names its role.
type node struct {
	cfg   proto.Config
	opts  Protocol
	state string
	// replies holds the slaves that answered the master's current round:
	// yes in w1, ack in p1.
	replies proto.SiteSet
}

func (n *node) State() string { return n.state }

func (n *node) Start(env proto.Env) {
	if n.state != "q1" {
		return
	}
	if !env.Execute(n.cfg.Payload) {
		n.decide(env, proto.Abort)
		return
	}
	env.SendAll(proto.MsgXact, n.cfg.Payload)
	n.enter(env, "w1", 2*env.T(), n.opts.Rules.MasterW)
}

// enter moves to a waiting state and, when Rules gives it a timeout
// target, sets its timer.
func (n *node) enter(env proto.Env, state string, timeout sim.Duration, target proto.Outcome) {
	n.state = state
	if target != proto.None {
		env.ResetTimer(timeout)
	}
}

func (n *node) decide(env proto.Env, o proto.Outcome) {
	n.state = "a"
	if o == proto.Commit {
		n.state = "c"
	}
	if n.cfg.IsMaster() {
		n.state += "1"
	}
	env.Decide(o)
}

// end takes a timeout or undeliverable transition to target; a None
// target has none.
func (n *node) end(env proto.Env, target proto.Outcome) {
	if target != proto.None {
		env.StopTimer()
		n.decide(env, target)
	}
}

func (n *node) OnMsg(env proto.Env, msg proto.Msg) {
	switch st, k := n.state, msg.Kind; {
	case st == "w1" && k == proto.MsgYes:
		n.replies.Add(msg.From)
		if n.replies.ContainsAll(env.Slaves()) {
			env.SendAll(proto.MsgPrepare, nil)
			n.replies = proto.SiteSet{}
			n.enter(env, "p1", 2*env.T(), n.opts.Rules.MasterP)
		}
	case st == "w1" && k == proto.MsgNo:
		env.SendAll(proto.MsgAbort, nil)
		n.decide(env, proto.Abort)
		env.StopTimer()
	case st == "p1" && k == proto.MsgAck:
		n.replies.Add(msg.From)
		if n.replies.ContainsAll(env.Slaves()) {
			env.StopTimer()
			env.SendAll(proto.MsgCommit, nil)
			n.decide(env, proto.Commit)
		}
	case st == "q" && k == proto.MsgXact:
		if !env.Execute(msg.Payload) {
			env.Send(env.MasterID(), proto.MsgNo, nil)
			n.decide(env, proto.Abort)
			return
		}
		env.Send(env.MasterID(), proto.MsgYes, nil)
		n.enter(env, "w", 3*env.T(), n.opts.Rules.SlaveW)
	case st == "w" && k == proto.MsgPrepare:
		env.Send(env.MasterID(), proto.MsgAck, nil)
		n.enter(env, "p", 3*env.T(), n.opts.Rules.SlaveP)
	case (st == "p" || st == "w" && n.opts.Modified) && k == proto.MsgCommit:
		// In w only the Figure 8 slave takes a commit; Figure 3's drops it.
		env.StopTimer()
		n.decide(env, proto.Commit)
	case (st == "w" || st == "p") && k == proto.MsgAbort:
		// No 3PC master sends an abort to a slave in p: w1's abort precedes
		// every prepare, and end decides without sending. Only a lone
		// automaton fed arbitrary messages takes the p half — the event
		// scripts cluster.TestBaselineDigests pins, and fsa's probe, which
		// puts master.w1 in S(slave.p) through it.
		env.StopTimer()
		n.decide(env, proto.Abort)
	}
}

func (n *node) OnTimeout(env proto.Env) {
	switch n.state {
	case "w1":
		n.end(env, n.opts.Rules.MasterW)
	case "p1":
		n.end(env, n.opts.Rules.MasterP)
	case "w":
		n.end(env, n.opts.Rules.SlaveW)
	case "p":
		n.end(env, n.opts.Rules.SlaveP)
	}
}

// OnUndeliverable follows Rule(b): the timeout transition of the state
// that would have received the message. A returned commit needs nothing:
// its sender has decided.
func (n *node) OnUndeliverable(env proto.Env, msg proto.Msg) {
	switch st, k := n.state, msg.Kind; {
	case st == "w1" && k == proto.MsgXact, st == "p1" && k == proto.MsgPrepare:
		n.end(env, n.opts.Rules.SlaveW) // the receiver was a slave in q or w
	case st == "w" && k == proto.MsgYes:
		n.end(env, n.opts.Rules.MasterW)
	case st == "p" && k == proto.MsgAck:
		n.end(env, n.opts.Rules.MasterP)
	}
}
