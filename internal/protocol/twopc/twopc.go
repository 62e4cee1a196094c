// Package twopc implements the centralized two-phase commit protocol of
// Gray and Lampson–Sturgis as presented in Figure 1 of Huang & Li (ICDE
// 1987), and its extension of Figure 2.
//
// The zero Protocol is deliberately unaugmented: it has no timeout or
// undeliverable-message transitions, so a partition (or a lost master)
// leaves slaves blocked in their wait state holding locks. The experiments
// use it to demonstrate the blocking behaviour that motivates everything
// else in the paper.
//
// Master FSA: q1 → w1 (send xact) → c1 (all yes / send commit) or
// a1 (any no / send abort). Slave FSA: q → w (xact / send yes) or
// a (xact / send no); w → c (commit) or a (abort).
//
// # The extended protocol (Fig. 2)
//
// Extended adds the timeout transitions of Rule(a) and the
// undeliverable-message transitions of Rule(b) from Skeen & Stonebraker's
// formal model, and puts a prepare state p1 between the master's commits
// and its own commit:
//
//	master: w1 --all yes/commit--> p1      (the paper's "prepare state")
//	        w1 --timeout--> a1,  w1 --UD(xact)--> a1
//	        p1 --timeout--> c1,  p1 --UD(commit)--> a1
//	slave:  w --timeout--> a,  w --UD(yes)--> a
//
// Rule(a) gives p1 its timeout-to-commit (a slave commit state is in
// C(p1)) and gives w its timeout-to-abort (for two sites no commit state is
// concurrent with w); Rule(b) pairs each undeliverable transition with the
// timeout transition of the state that would have received the message.
// Timeout intervals follow Fig. 5: 2T at the master, 3T at slaves.
//
// The augmentation makes the protocol resilient to *two-site* simple
// partitioning with return of undeliverable messages (experiment E2
// verifies this exhaustively) but not to the multisite case: Section 3 of
// the paper exhibits the counterexample where the master has sent out
// commit messages, the partition renders commit_3 undeliverable, and
// site 2 commits while site 3 times out and aborts. Experiment E3
// reproduces it.
package twopc

import (
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Protocol builds two-phase commit automata. The zero value is the pure
// Figure 1 protocol.
type Protocol struct {
	// Extended selects the Figure 2 automata: Rule(a) timeouts, Rule(b)
	// undeliverable transitions and the master's prepare state p1.
	Extended bool
}

// Name implements proto.Protocol.
func (p Protocol) Name() string {
	if p.Extended {
		return "2pc-ext"
	}
	return "2pc"
}

// NewMaster implements proto.Protocol.
func (p Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &node{cfg: cfg, ext: p.Extended, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (p Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &node{cfg: cfg, ext: p.Extended, state: "q"}
}

// node is the master automaton (states q1 w1 [p1] c1 a1) or a slave's
// (q w c a); its state names its role.
type node struct {
	cfg   proto.Config
	ext   bool
	state string
	yes   proto.SiteSet
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
	n.enter(env, "w1", 2*env.T())
}

// enter moves to a waiting state and, in the extended protocol, sets its
// timer: 2T at the master, 3T at a slave (Fig. 5).
func (n *node) enter(env proto.Env, state string, timeout sim.Duration) {
	if n.ext {
		env.ResetTimer(timeout)
	}
	n.state = state
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

func (n *node) OnMsg(env proto.Env, msg proto.Msg) {
	switch st, k := n.state, msg.Kind; {
	case st == "w1" && k == proto.MsgYes:
		n.yes.Add(msg.From)
		if !n.yes.ContainsAll(env.Slaves()) {
			return
		}
		env.SendAll(proto.MsgCommit, nil)
		if n.ext {
			n.enter(env, "p1", 2*env.T()) // Fig. 2's prepare state
		} else {
			n.decide(env, proto.Commit)
		}
	case st == "w1" && k == proto.MsgNo:
		env.StopTimer()
		env.SendAll(proto.MsgAbort, nil)
		n.decide(env, proto.Abort)
	case st == "q" && k == proto.MsgXact:
		if !env.Execute(msg.Payload) {
			env.Send(env.MasterID(), proto.MsgNo, nil)
			n.decide(env, proto.Abort)
			return
		}
		env.Send(env.MasterID(), proto.MsgYes, nil)
		n.enter(env, "w", 3*env.T())
	case st == "w" && k == proto.MsgCommit:
		env.StopTimer()
		n.decide(env, proto.Commit)
	case st == "w" && k == proto.MsgAbort:
		env.StopTimer()
		n.decide(env, proto.Abort)
	}
}

// OnUndeliverable follows Rule(b) in the extended protocol: the receiver
// (slave q of an xact, slave w of a commit, master w1 of a yes) times out
// to abort. For the commit that is sound for two sites only, the flaw the
// Section 3 counterexample exploits.
func (n *node) OnUndeliverable(env proto.Env, msg proto.Msg) {
	switch st, k := n.state, msg.Kind; {
	case !n.ext:
	case st == "w1" && k == proto.MsgXact, st == "p1" && k == proto.MsgCommit, st == "w" && k == proto.MsgYes:
		env.StopTimer()
		n.decide(env, proto.Abort)
	}
}

// OnTimeout follows Rule(a) in the extended protocol. C(w1) contains no
// commit state and C(p1) contains slave commit states. For the two-site
// derivation C(w) contains no commit state; for n >= 3 it contains both
// a commit and an abort (Section 3, fact 1) and no assignment can be
// right.
func (n *node) OnTimeout(env proto.Env) {
	switch {
	case !n.ext:
	case n.state == "w1", n.state == "w":
		n.decide(env, proto.Abort)
	case n.state == "p1":
		n.decide(env, proto.Commit)
	}
}
