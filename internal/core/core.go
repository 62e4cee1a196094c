// Package core implements the paper's primary contribution: the
// termination protocol of Section 5.3 of Huang & Li, "A Termination
// Protocol for Simple Network Partitioning in Distributed Database
// Systems" (ICDE 1987), layered on the modified three-phase commit protocol
// of Figure 8 or, by Theorem 10, on a four-phase one.
//
// # Protocol summary
//
// Let G1 be the partition containing the master and G2 the other
// partition; B is the boundary between them (Fig. 4). The governing
// invariant (Lemmas 5–8) is:
//
//	slaves in G2 commit  ⇔  at least one prepare message flowed
//	                        through B before the partition blocked it
//	                     ⇔  all sites in G1 commit
//
// Master actions on failure evidence (notation from §5.3; N is the slave
// set — the paper writes N = {1..n} but uses it as "all slaves" in
// Lemma 4, see DESIGN.md §5.3):
//
//	w1: timeout (2T) or UD(xact)        → send abort to all slaves, abort
//	e1: timeout (2T) or UD(pre)         → the same (four-phase only)
//	p1: timeout (2T)                    → send commit to all slaves, commit
//	p1: UD(prepare_i)                   → UD := {i}; PB := ∅; start a 5T
//	                                      window; collect further
//	                                      UD(prepare_j) into UD and
//	                                      probe(tid, slave_j) into PB;
//	                                      at 5T: if N − UD = PB send abort
//	                                      to all, else send commit to all;
//	                                      as soon as UD ∪ PB = N: stop the
//	                                      timer, send abort to all
//	p1u: ack_j held (on opening the     → send solicit_j, once
//	     window, or arriving later),
//	     j ∉ UD ∪ PB
//
// The last two lines are the departures from the paper's timing (never
// from its decisions). A frame is delivered or returned, never both, and
// only a prepare-holder probes, so UD and PB are disjoint and only grow;
// once they cover N, N − UD = PB is final and is what the 5T expiry would
// compute. Only abort can come early — a missing probe looks like a late
// one until 5T, and an ack may predate the cut.
//
// The solicit moves the probes forward: the 3T a slave waits in p is its
// failure detector, and the master, holding a bounce, needs none. The
// verdict is still N − UD = PB over the same two sets. What a probe in PB
// must certify is that its sender will never commit on its own and that
// the abort will reach it. The timed probe does so by "no UD(ack) within
// 3T" and "the probe crossed". A solicited one does so by "ack_j was
// delivered" (j never takes the UD(ack) path) and "j answered a message
// sent after the first UD" (the exchange postdates the cut, so within one
// onset (+ heal) episode j's link to the master stays open). Both halves
// are needed. An ack alone may predate the cut. An answer alone is the
// case-2.1 counterexample: j in G2 holds a prepare, its ack is on its way
// back undeliverable, the cut heals, an unconditional solicit reaches j,
// j's answer lands in PB and the master aborts — then UD(ack) arrives and
// j commits G2. Hence solicits go to acked slaves only. proto.Window
// holds both rules.
//
// Slave actions:
//
//	w, e: timeout (3T)                  → wait a further 6T for a commit
//	                                      or abort (in wt, et); at 6T,
//	                                      abort
//	w, e: UD(yes_i), UD(preack_i)       → send abort to all sites, abort
//	p:    timeout (3T)                  → send probe(tid, slave_i) to the
//	                                      master, then wait for UD(probe)
//	                                      (→ send commit to all, commit),
//	                                      a commit, or an abort; with the
//	                                      §6 transient fix, also commit
//	                                      after 5T of silence
//	p:    UD(ack_i)                     → send commit to all sites, commit
//	p:    solicit                       → send probe(tid, slave_i) to the
//	                                      master; nothing else: state and
//	                                      timer stay, UD(probe) outside pt
//	                                      stays ignored
//
// A slave that broadcasts a decision sends it to every site (the paper's
// commit_1..n / abort_1..n), so its G2 peers — including those still in w,
// thanks to the Figure 8 w → c transition — terminate with it.
//
// # Theorem 10: the four-phase substrate
//
// The construction fits any master/slave commit protocol satisfying
// Lemmas 1 and 2, with the message that makes slaves committable playing
// the part of prepare. FourPhase selects such a protocol: a buffered round
// (pre/preack) between the vote and prepare (`protoviz -proto
// 4pc-termination` draws it). Its states e1 and e, like w1 and w, come
// before any prepare exists and take their rules: a timeout, a UD(pre) or
// a UD(preack) aborts, and a slave in e waits in et exactly as one in w
// waits in wt. Prepare, ack, the window, probe and solicit are unchanged.
// Experiment E14 runs the resilience sweeps against this substrate.
//
// # Options
//
// TransientFix enables the Section 6 modification (slave p-timeout waits
// 5T, then commits), which makes the protocol valid under transient
// partitioning; without it a slave wedges forever in case 3.2.2.2.
// ReplyToLateProbes is an extension beyond the paper: the master answers
// probes received after it has decided, an alternative repair for case
// 3.2.2.2 evaluated as an ablation (E12).
package core

import (
	"termproto/internal/proto"
)

// Protocol builds termination-protocol automata.
type Protocol struct {
	// TransientFix enables the §6 modification for transient partitions:
	// a slave that timed out in p commits after 5T of further silence.
	TransientFix bool
	// ReplyToLateProbes is an extension beyond the paper: the master
	// answers probes that arrive after it has decided with its decision.
	ReplyToLateProbes bool
	// DisableWToC turns the Figure 8 w → c transition back off, recreating
	// the "fly in the ointment" scenario of §5.3 for experiment E10.
	DisableWToC bool
	// FourPhase runs the construction over four-phase commit instead of
	// three-phase (Theorem 10): a pre/preack round, with master state e1
	// and slave states e/et, sits between the vote and prepare.
	FourPhase bool
}

// Name implements proto.Protocol.
func (p Protocol) Name() string {
	switch {
	case p.FourPhase:
		return "4pc-termination"
	case p.TransientFix:
		return "termination+transient"
	}
	return "termination"
}

// NewMaster implements proto.Protocol.
func (p Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &Master{cfg: cfg, opts: p, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (p Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &Slave{opts: p, state: "q"}
}

// Master is the termination-protocol master automaton.
//
// Local states: q1, w1, e1 (four-phase only), p1, p1u (the UD(prepare)
// 5T collection window — a refinement of p1, reported as "p1u" in traces),
// c1, a1.
type Master struct {
	cfg   proto.Config
	opts  Protocol
	state string

	// replies holds the slaves that answered the current round: yes in
	// w1, preack in e1, ack in p1 and p1u.
	replies proto.SiteSet
	win     proto.Window // the §5.3 p1(2) UD/PB sets
}

// State implements proto.Node.
func (m *Master) State() string {
	if m.win.Open() {
		return "p1u"
	}
	return m.state
}

// Start implements proto.Node: execute locally, then send the xacts.
func (m *Master) Start(env proto.Env) {
	if !env.Execute(m.cfg.Payload) {
		m.state = "a1"
		env.Decide(proto.Abort)
		return
	}
	env.SendAll(proto.MsgXact, m.cfg.Payload)
	m.state = "w1"
	env.ResetTimer(2 * env.T())
}

// OnMsg implements proto.Node.
func (m *Master) OnMsg(env proto.Env, msg proto.Msg) {
	if m.win.Open() {
		switch msg.Kind {
		case proto.MsgAck:
			// A G1 slave's ack straggling in (all of them can never
			// arrive here: a prepare already bounced). It entitles the
			// slave to a solicit like an ack that beat the first UD.
			m.replies.Add(msg.From)
			m.solicit(env)
		case proto.MsgProbe:
			m.win.Probed(msg.From)
			env.Tracef("master PB += %d, PB=%s", msg.From, m.win.PB())
			m.closeWindow(env, false)
		}
		return
	}
	switch {
	case m.state == "w1" && msg.Kind == proto.MsgYes,
		m.state == "e1" && msg.Kind == proto.MsgPreAck,
		m.state == "p1" && msg.Kind == proto.MsgAck:
		m.replies.Add(msg.From)
		if m.replies.ContainsAll(env.Slaves()) {
			m.advance(env)
		}
	case m.state == "w1" && msg.Kind == proto.MsgNo:
		// Not decide: Figure 3's order (abort sent, decided, then the
		// timer stopped) is what the traces of a no vote record.
		env.SendAll(proto.MsgAbort, nil)
		m.state = "a1"
		env.Decide(proto.Abort)
		env.StopTimer()
	case (m.state == "c1" || m.state == "a1") && msg.Kind == proto.MsgProbe && m.opts.ReplyToLateProbes:
		// Extension: answer a late probe (transient heal, case 3.2.2.2)
		// with the decision instead of dropping it.
		kind := proto.MsgCommit
		if m.state == "a1" {
			kind = proto.MsgAbort
		}
		env.Send(msg.From, kind, nil)
	}
}

// advance leaves a round every slave has answered: w1 → e1 sending pre
// (four-phase), w1 or e1 → p1 sending prepare, p1 → c1.
func (m *Master) advance(env proto.Env) {
	if m.state == "p1" {
		m.decide(env, proto.Commit)
		return
	}
	m.replies = proto.SiteSet{}
	if m.state == "w1" && m.opts.FourPhase {
		env.SendAll(proto.MsgPre, nil)
		m.state = "e1"
	} else {
		env.SendAll(proto.MsgPrepare, nil)
		m.state = "p1"
	}
	env.ResetTimer(2 * env.T())
}

// OnUndeliverable implements proto.Node.
func (m *Master) OnUndeliverable(env proto.Env, msg proto.Msg) {
	switch {
	case m.state == "w1" && msg.Kind == proto.MsgXact,
		m.state == "e1" && msg.Kind == proto.MsgPre:
		// §5.3 w1(2): a slave never learned of the transaction (or of the
		// pre round), so no prepare exists anywhere; abort is safe
		// everywhere.
		m.decide(env, proto.Abort)
	case m.state == "p1" && msg.Kind == proto.MsgPrepare:
		// §5.3 p1(2): the first bounce opens the 5T window.
		if m.win.Bounced(msg.To) {
			env.ResetTimer(5 * env.T())
		}
		env.Tracef("master in p1u, UD += %d, UD=%s", msg.To, m.win.UD())
		m.solicit(env)
		m.closeWindow(env, false)
	}
}

// solicit asks every slave whose ack the master holds, and whom the window
// has neither accounted for nor asked yet, for its probe now (see
// proto.Window for why the ack is required).
func (m *Master) solicit(env proto.Env) {
	for _, j := range m.win.Solicit(m.replies) {
		env.Tracef("master holds ack_%d, soliciting its probe", j)
		env.Send(j, proto.MsgSolicit, nil)
	}
}

// closeWindow applies the §5.3 p1(2) verdict — if the probes came from
// exactly the slaves whose prepares were delivered, no prepare crossed B —
// at the 5T expiry, or early once every slave is in UD ∪ PB and the
// verdict can no longer change (see proto.Window).
func (m *Master) closeWindow(env proto.Env, expired bool) {
	if expired || m.win.Complete(env.Slaves()) {
		o := m.win.Verdict(env.Slaves())
		env.Tracef("UD=%s PB=%s, 5T expired=%v: %s", m.win.UD(), m.win.PB(), expired, o)
		m.decide(env, o)
	}
}

// OnTimeout implements proto.Node.
func (m *Master) OnTimeout(env proto.Env) {
	switch {
	case m.win.Open():
		m.closeWindow(env, true)
	case m.state == "w1", m.state == "e1":
		// §5.3 w1(1): no prepares generated; abort everywhere.
		m.decide(env, proto.Abort)
	case m.state == "p1":
		// §5.3 p1(1): every prepare was deliverable (no UD returned), so
		// every slave — in either partition — holds a prepare and will
		// commit; commit everywhere.
		m.decide(env, proto.Commit)
	}
}

func (m *Master) decide(env proto.Env, o proto.Outcome) {
	env.StopTimer()
	m.win.Close()
	if o == proto.Commit {
		env.SendAll(proto.MsgCommit, nil)
		m.state = "c1"
	} else {
		env.SendAll(proto.MsgAbort, nil)
		m.state = "a1"
	}
	env.Decide(o)
}

// Slave is the termination-protocol slave automaton.
//
// Local states: q, w, wt (timed out in w, inside the 6T window), e and et
// (their four-phase counterparts after pre), p, pt (timed out in p, probe
// sent), c, a.
type Slave struct {
	opts  Protocol
	state string
}

// State implements proto.Node.
func (s *Slave) State() string { return s.state }

// Start implements proto.Node.
func (s *Slave) Start(proto.Env) {}

// OnMsg implements proto.Node.
func (s *Slave) OnMsg(env proto.Env, msg proto.Msg) {
	switch s.state {
	case "q":
		if msg.Kind != proto.MsgXact {
			return
		}
		if env.Execute(msg.Payload) {
			s.reply(env, proto.MsgYes, "w")
		} else {
			env.Send(env.MasterID(), proto.MsgNo, nil)
			s.state = "a"
			env.Decide(proto.Abort)
		}
	case "w", "e":
		switch {
		case msg.Kind == proto.MsgPre && s.state == "w" && s.opts.FourPhase:
			s.reply(env, proto.MsgPreAck, "e")
		case msg.Kind == proto.MsgPrepare && (s.state == "e") == s.opts.FourPhase:
			// Prepare ends the last noncommittable wait: w, or e after pre.
			s.reply(env, proto.MsgAck, "p")
		case msg.Kind == proto.MsgCommit && !s.opts.DisableWToC:
			// The Figure 8 w → c transition: a G2 peer's commit.
			s.finish(env, proto.Commit, false)
		case msg.Kind == proto.MsgAbort:
			s.finish(env, proto.Abort, false)
		}
	case "p", "wt", "et", "pt":
		// A timed-out slave waits for a decision and nothing else.
		switch msg.Kind {
		case proto.MsgSolicit:
			// The master holds our ack and a bounced prepare: answer with
			// the probe our 3T timer would send, and change nothing else —
			// the timer keeps running and we stay out of pt, so a
			// UD(probe) stays ignored.
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

// reply answers the master and moves to the next wait state, each with
// its own 3T failure detector.
func (s *Slave) reply(env proto.Env, kind proto.Kind, next string) {
	env.Send(env.MasterID(), kind, nil)
	s.state = next
	env.ResetTimer(3 * env.T())
}

// OnUndeliverable implements proto.Node.
func (s *Slave) OnUndeliverable(env proto.Env, msg proto.Msg) {
	if s.state == "c" || s.state == "a" {
		return // returns of our own decision broadcast; ignore
	}
	switch msg.Kind {
	case proto.MsgYes, proto.MsgPreAck:
		// §5.3 w(2): our answer never reached the master, so the master
		// times out in w1 (or e1) and aborts G1; nobody can commit.
		// Broadcast the abort so our partition terminates promptly.
		s.finish(env, proto.Abort, true)
	case proto.MsgAck:
		// §5.3 p(2): our ack bounced, so we are in G2 *and* we hold a
		// prepare: a prepare crossed B, everyone commits. We are
		// responsible for committing G2.
		s.finish(env, proto.Commit, true)
	case proto.MsgProbe:
		// §5.3 p(1): our probe bounced, so we are in G2 and hold a
		// prepare: commit G2.
		if s.state == "pt" {
			s.finish(env, proto.Commit, true)
		}
	}
}

// OnTimeout implements proto.Node.
func (s *Slave) OnTimeout(env proto.Env) {
	switch s.state {
	case "w", "e":
		// §5.3 w(1): wait up to 6T for someone's decision (Fig. 7 bound).
		was := s.state
		s.state += "t"
		env.ResetTimer(6 * env.T())
		env.Tracef("slave %d %s-timeout, waiting 6T", env.Self(), was)
	case "wt", "et":
		// §5.3 w(1): nothing arrived within 6T; abort is safe (the master
		// aborted G1, or we are in G2 and no prepare crossed B).
		s.finish(env, proto.Abort, false)
	case "p":
		// §5.3 p(1): probe the master.
		env.Send(env.MasterID(), proto.MsgProbe, nil)
		s.state = "pt"
		if s.opts.TransientFix {
			// §6: every reachable case answers within 5T (Fig. 9); pure
			// silence means case 3.2.2.2, where the decision was commit.
			env.ResetTimer(5 * env.T())
		} else {
			env.StopTimer()
		}
		env.Tracef("slave %d p-timeout, probing master", env.Self())
	case "pt":
		// §6 transient fix: 5T of silence after the probe ⇒ case 3.2.2.2,
		// where all sites decided commit.
		s.finish(env, proto.Commit, false)
	}
}

// finish decides the outcome; if broadcast is set the decision is sent to
// every other site first (the paper's commit_1..n / abort_1..n).
func (s *Slave) finish(env proto.Env, o proto.Outcome, broadcast bool) {
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
