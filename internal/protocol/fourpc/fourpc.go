// Package fourpc demonstrates Theorem 10 of Huang & Li (ICDE 1987): the
// termination-protocol construction of Section 5 applies to any
// master/slave commit protocol satisfying Lemma 1 and Lemma 2, with the
// message that moves slaves from a noncommittable to a committable state
// substituted for "prepare".
//
// The substrate here is a four-phase commit protocol: voting
// (xact/yes), a buffered round (pre/preack), the committable round
// (prepare/ack), and commit. Its FSA (internal/fsa.FourPC) satisfies both
// lemmas, so the construction attaches to the prepare round exactly as in
// the paper:
//
//	master w1, e1: timeout or UD        → abort everywhere (no prepare
//	                                      exists yet, nobody can commit)
//	master p1:     timeout              → commit everywhere
//	master p1:     UD(prepare)          → the §5.3 UD/PB window, closed
//	                                      early once UD ∪ PB = N
//	                                      (proto.Window, shared with core)
//	master p1u:    ack_j held, j not in → solicit_j, once (acked slaves
//	               UD ∪ PB                only — see internal/core)
//	slave  w, e:   timeout              → 6T wait, then abort
//	slave  w, e:   UD(yes), UD(preack)  → broadcast abort
//	slave  p:      timeout              → probe; UD(probe) → broadcast
//	                                      commit; optional §6 5T fix
//	slave  p:      UD(ack)              → broadcast commit
//	slave  p:      solicit              → probe, nothing else
//
// Experiment E14 runs the same resilience sweeps against it as against the
// three-phase core.
package fourpc

import (
	"termproto/internal/proto"
)

// Protocol builds four-phase termination-protocol automata.
type Protocol struct {
	// TransientFix enables the §6 modification (slave p-timeout commits
	// after 5T of silence).
	TransientFix bool
}

// Name implements proto.Protocol.
func (p Protocol) Name() string { return "4pc-termination" }

// NewMaster implements proto.Protocol.
func (p Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &master{cfg: cfg, opts: p, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (p Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &slave{cfg: cfg, opts: p, state: "q"}
}

type master struct {
	cfg   proto.Config
	opts  Protocol
	state string

	yes, preacks, acks proto.SiteSet
	win                proto.Window
}

func (m *master) State() string {
	if m.win.Open() {
		return "p1u"
	}
	return m.state
}

func (m *master) Start(env proto.Env) {
	if !env.Execute(m.cfg.Payload) {
		m.state = "a1"
		env.Decide(proto.Abort)
		return
	}
	env.SendAll(proto.MsgXact, m.cfg.Payload)
	m.state = "w1"
	env.ResetTimer(2 * env.T())
}

func (m *master) decide(env proto.Env, o proto.Outcome) {
	env.StopTimer()
	if o == proto.Commit {
		env.SendAll(proto.MsgCommit, nil)
		m.state = "c1"
	} else {
		env.SendAll(proto.MsgAbort, nil)
		m.state = "a1"
	}
	m.win.Close()
	env.Decide(o)
}

// closeWindow decides on the UD/PB evidence at the 5T expiry, or early
// once every slave is accounted for (see proto.Window).
func (m *master) closeWindow(env proto.Env, expired bool) {
	if expired || m.win.Complete(env.Slaves()) {
		m.decide(env, m.win.Verdict(env.Slaves()))
	}
}

func (m *master) OnMsg(env proto.Env, msg proto.Msg) {
	if m.win.Open() {
		switch msg.Kind {
		case proto.MsgAck:
			// A straggling ack entitles the slave to a solicit like one
			// that beat the first UD.
			m.acks.Add(msg.From)
			m.solicit(env)
		case proto.MsgProbe:
			m.win.Probed(msg.From)
			m.closeWindow(env, false)
		}
		return
	}
	switch m.state {
	case "w1":
		switch msg.Kind {
		case proto.MsgYes:
			m.yes.Add(msg.From)
			if m.yes.ContainsAll(env.Slaves()) {
				env.SendAll(proto.MsgPre, nil)
				m.state = "e1"
				env.ResetTimer(2 * env.T())
			}
		case proto.MsgNo:
			m.decide(env, proto.Abort)
		}
	case "e1":
		if msg.Kind == proto.MsgPreAck {
			m.preacks.Add(msg.From)
			if m.preacks.ContainsAll(env.Slaves()) {
				env.SendAll(proto.MsgPrepare, nil)
				m.state = "p1"
				env.ResetTimer(2 * env.T())
			}
		}
	case "p1":
		if msg.Kind == proto.MsgAck {
			m.acks.Add(msg.From)
			if m.acks.ContainsAll(env.Slaves()) {
				m.decide(env, proto.Commit)
			}
		}
	}
}

func (m *master) OnUndeliverable(env proto.Env, msg proto.Msg) {
	switch m.State() {
	case "w1":
		if msg.Kind == proto.MsgXact {
			m.decide(env, proto.Abort)
		}
	case "e1":
		if msg.Kind == proto.MsgPre {
			// No prepare exists anywhere; abort is universally safe.
			m.decide(env, proto.Abort)
		}
	case "p1", "p1u":
		if msg.Kind == proto.MsgPrepare {
			if m.win.Bounced(msg.To) {
				env.ResetTimer(5 * env.T())
			}
			m.solicit(env)
			m.closeWindow(env, false)
		}
	}
}

// solicit asks the acked slaves the window is still waiting for to probe
// now (see proto.Window).
func (m *master) solicit(env proto.Env) {
	for _, j := range m.win.Solicit(m.acks) {
		env.Send(j, proto.MsgSolicit, nil)
	}
}

func (m *master) OnTimeout(env proto.Env) {
	switch {
	case m.win.Open():
		m.closeWindow(env, true)
	case m.state == "w1" || m.state == "e1":
		m.decide(env, proto.Abort)
	case m.state == "p1":
		m.decide(env, proto.Commit)
	}
}

type slave struct {
	cfg   proto.Config
	opts  Protocol
	state string // q, w, e, p, wt, et, pt, c, a
}

func (s *slave) State() string { return s.state }

func (s *slave) Start(proto.Env) {}

func (s *slave) finish(env proto.Env, o proto.Outcome, broadcast bool) {
	env.StopTimer()
	if broadcast {
		kind := proto.MsgCommit
		if o == proto.Abort {
			kind = proto.MsgAbort
		}
		env.SendAll(kind, nil)
	}
	if o == proto.Commit {
		s.state = "c"
	} else {
		s.state = "a"
	}
	env.Decide(o)
}

func (s *slave) OnMsg(env proto.Env, msg proto.Msg) {
	switch s.state {
	case "q":
		if msg.Kind != proto.MsgXact {
			return
		}
		if env.Execute(msg.Payload) {
			env.Send(env.MasterID(), proto.MsgYes, nil)
			s.state = "w"
			env.ResetTimer(3 * env.T())
		} else {
			env.Send(env.MasterID(), proto.MsgNo, nil)
			s.state = "a"
			env.Decide(proto.Abort)
		}
	case "w", "wt", "e", "et":
		switch msg.Kind {
		case proto.MsgPre:
			if s.state == "w" || s.state == "wt" {
				env.Send(env.MasterID(), proto.MsgPreAck, nil)
				s.state = "e"
				env.ResetTimer(3 * env.T())
			}
		case proto.MsgPrepare:
			if s.state == "e" || s.state == "et" {
				env.Send(env.MasterID(), proto.MsgAck, nil)
				s.state = "p"
				env.ResetTimer(3 * env.T())
			}
		case proto.MsgCommit:
			// The Figure 8 transition generalized: a buffered slave takes
			// a peer's commit directly.
			s.finish(env, proto.Commit, false)
		case proto.MsgAbort:
			s.finish(env, proto.Abort, false)
		}
	case "p", "pt":
		switch msg.Kind {
		case proto.MsgSolicit:
			// Answer with the probe the 3T timer would send; state and
			// timer stay as they are.
			if s.state == "p" {
				env.Send(env.MasterID(), proto.MsgProbe, nil)
			}
		case proto.MsgCommit:
			s.finish(env, proto.Commit, false)
		case proto.MsgAbort:
			s.finish(env, proto.Abort, false)
		}
	}
}

func (s *slave) OnUndeliverable(env proto.Env, msg proto.Msg) {
	switch s.state {
	case "c", "a":
		return
	}
	switch msg.Kind {
	case proto.MsgYes, proto.MsgPreAck:
		// Our vote or buffered-round ack bounced: the master can never
		// advance to sending prepare, so nobody can commit.
		s.finish(env, proto.Abort, true)
	case proto.MsgAck:
		// We hold a prepare and sit in G2: a prepare crossed B.
		s.finish(env, proto.Commit, true)
	case proto.MsgProbe:
		if s.state == "pt" {
			s.finish(env, proto.Commit, true)
		}
	}
}

func (s *slave) OnTimeout(env proto.Env) {
	switch s.state {
	case "w":
		s.state = "wt"
		env.ResetTimer(6 * env.T())
	case "e":
		s.state = "et"
		env.ResetTimer(6 * env.T())
	case "wt", "et":
		s.finish(env, proto.Abort, false)
	case "p":
		env.Send(env.MasterID(), proto.MsgProbe, nil)
		s.state = "pt"
		if s.opts.TransientFix {
			env.ResetTimer(5 * env.T())
		} else {
			env.StopTimer()
		}
	case "pt":
		s.finish(env, proto.Commit, false)
	}
}
