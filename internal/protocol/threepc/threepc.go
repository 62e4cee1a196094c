// Package threepc implements Skeen's centralized three-phase commit
// protocol as presented in Figure 3 of Huang & Li (ICDE 1987), plus the
// modified slave automaton of Figure 8.
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
// under partitions (it has no timeout transitions here); the paper's
// termination protocol in internal/core, which runs its own automaton over
// the same rounds, is what makes it resilient. Only threepcrules embeds
// these types.
//
// The Modified option adds the Figure 8 transition w → c on receipt of a
// commit message. Section 5.3 shows why it is needed: a slave in G2 that
// never received a prepare can be sent its one-and-only commit by a G2 peer
// while still in w, and without this transition that commit is lost.
package threepc

import (
	"termproto/internal/proto"
)

// Protocol builds three-phase commit automata. The zero value is the pure
// Figure 3 protocol.
type Protocol struct {
	// Modified selects the Figure 8 slave automaton with the w → c
	// transition.
	Modified bool
}

// Name implements proto.Protocol.
func (p Protocol) Name() string {
	if p.Modified {
		return "3pc-mod"
	}
	return "3pc"
}

// NewMaster implements proto.Protocol.
func (p Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &Master{cfg: cfg, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (p Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &Slave{cfg: cfg, state: "q", modified: p.Modified}
}

// Master is the 3PC master automaton. It is exported so the
// rules-augmented variant (internal/protocol/threepcrules) can embed it and
// add timeout transitions.
type Master struct {
	cfg   proto.Config
	state string
	yes   proto.SiteSet
	acks  proto.SiteSet
}

// State implements proto.Node.
func (m *Master) State() string { return m.state }

// SetState overrides the local state; for embedding protocols only.
func (m *Master) SetState(s string) { m.state = s }

// Start implements proto.Node: execute locally, then first phase.
func (m *Master) Start(env proto.Env) {
	if !env.Execute(m.cfg.Payload) {
		m.state = "a1"
		env.Decide(proto.Abort)
		return
	}
	env.SendAll(proto.MsgXact, m.cfg.Payload)
	m.state = "w1"
}

// HandleVote processes yes/no votes while in w1 and drives the
// w1 → p1 / w1 → a1 transitions. It reports whether the message was
// consumed. afterPrepare and afterAbort run just after the corresponding
// sends, so embedders can arm timers; either may be nil.
func (m *Master) HandleVote(env proto.Env, msg proto.Msg, afterPrepare, afterAbort func()) bool {
	if m.state != "w1" {
		return false
	}
	switch msg.Kind {
	case proto.MsgYes:
		m.yes.Add(msg.From)
		if m.yes.ContainsAll(env.Slaves()) {
			env.SendAll(proto.MsgPrepare, nil)
			m.state = "p1"
			if afterPrepare != nil {
				afterPrepare()
			}
		}
		return true
	case proto.MsgNo:
		env.SendAll(proto.MsgAbort, nil)
		m.state = "a1"
		env.Decide(proto.Abort)
		if afterAbort != nil {
			afterAbort()
		}
		return true
	}
	return false
}

// HandleAck processes acks while in p1 and drives p1 → c1. It reports
// whether the message was consumed.
func (m *Master) HandleAck(env proto.Env, msg proto.Msg) bool {
	if m.state != "p1" || msg.Kind != proto.MsgAck {
		return false
	}
	m.acks.Add(msg.From)
	if m.acks.ContainsAll(env.Slaves()) {
		env.StopTimer()
		env.SendAll(proto.MsgCommit, nil)
		m.state = "c1"
		env.Decide(proto.Commit)
	}
	return true
}

// OnMsg implements proto.Node for the pure protocol.
func (m *Master) OnMsg(env proto.Env, msg proto.Msg) {
	if m.HandleVote(env, msg, nil, nil) {
		return
	}
	m.HandleAck(env, msg)
}

// OnUndeliverable is a no-op: Figure 3 has no undeliverable transitions.
func (m *Master) OnUndeliverable(proto.Env, proto.Msg) {}

// OnTimeout is a no-op: Figure 3 has no timeout transitions.
func (m *Master) OnTimeout(proto.Env) {}

// Slave is the 3PC slave automaton, exported so threepcrules can embed it.
type Slave struct {
	cfg      proto.Config
	state    string
	modified bool
}

// State implements proto.Node.
func (s *Slave) State() string { return s.state }

// SetState overrides the local state; for embedding protocols only.
func (s *Slave) SetState(st string) { s.state = st }

// Start implements proto.Node.
func (s *Slave) Start(proto.Env) {}

// HandleXact processes the initial xact in q: vote and move to w or a.
// afterYes runs just after the yes is sent (arm timers); may be nil.
// It reports whether the message was consumed.
func (s *Slave) HandleXact(env proto.Env, msg proto.Msg, afterYes func()) bool {
	if s.state != "q" || msg.Kind != proto.MsgXact {
		return false
	}
	if env.Execute(msg.Payload) {
		env.Send(env.MasterID(), proto.MsgYes, nil)
		s.state = "w"
		if afterYes != nil {
			afterYes()
		}
	} else {
		env.Send(env.MasterID(), proto.MsgNo, nil)
		s.state = "a"
		env.Decide(proto.Abort)
	}
	return true
}

// HandleW processes prepare/abort (and, in the modified protocol, commit)
// in state w. afterAck runs just after the ack is sent; may be nil.
// It reports whether the message was consumed.
func (s *Slave) HandleW(env proto.Env, msg proto.Msg, afterAck func()) bool {
	if s.state != "w" {
		return false
	}
	switch msg.Kind {
	case proto.MsgPrepare:
		env.Send(env.MasterID(), proto.MsgAck, nil)
		s.state = "p"
		if afterAck != nil {
			afterAck()
		}
		return true
	case proto.MsgAbort:
		env.StopTimer()
		s.state = "a"
		env.Decide(proto.Abort)
		return true
	case proto.MsgCommit:
		if !s.modified {
			return false // Figure 3 slave drops a commit received in w
		}
		env.StopTimer()
		s.state = "c"
		env.Decide(proto.Commit)
		return true
	}
	return false
}

// HandleP processes commit/abort in state p. It reports whether the
// message was consumed. (Pure 3PC can never deliver an abort to a slave in
// p, but the termination protocol's master can — §5.3.)
func (s *Slave) HandleP(env proto.Env, msg proto.Msg) bool {
	if s.state != "p" {
		return false
	}
	switch msg.Kind {
	case proto.MsgCommit:
		env.StopTimer()
		s.state = "c"
		env.Decide(proto.Commit)
		return true
	case proto.MsgAbort:
		env.StopTimer()
		s.state = "a"
		env.Decide(proto.Abort)
		return true
	}
	return false
}

// OnMsg implements proto.Node for the pure protocol.
func (s *Slave) OnMsg(env proto.Env, msg proto.Msg) {
	if s.HandleXact(env, msg, nil) {
		return
	}
	if s.HandleW(env, msg, nil) {
		return
	}
	s.HandleP(env, msg)
}

// OnUndeliverable is a no-op: Figure 3 has no undeliverable transitions.
func (s *Slave) OnUndeliverable(proto.Env, proto.Msg) {}

// OnTimeout is a no-op: Figure 3 has no timeout transitions.
func (s *Slave) OnTimeout(proto.Env) {}
