// Package quorum implements a quorum-based commit protocol with a
// quorum termination protocol in the spirit of Skeen's "A Quorum-Based
// Commit Protocol" (6th Berkeley Workshop, 1982) — reference [5] of Huang &
// Li and the era baseline the paper positions itself against.
//
// Normal operation is centralized three-phase commit. When a site times
// out it switches to termination mode: it polls the sites it can still
// reach (state-req/state-rep), and the lowest-numbered reachable site acts
// as surrogate coordinator applying the quorum rules over the collected
// local states:
//
//   - any reachable site committed   → commit the reachable group
//   - any reachable site aborted     → abort the reachable group
//   - some reachable site prepared   → commit only with a commit quorum
//     (≥ Vc sites reachable)
//   - no reachable site prepared     → abort only with an abort quorum
//     (≥ Va sites reachable)
//   - otherwise                      → stay blocked and retry
//
// With Vc + Va > n both partitions can never decide differently, but a
// group smaller than both quorums simply blocks — precisely the behaviour
// Huang & Li's termination protocol avoids in the optimistic model.
// Experiment E15 contrasts the two.
//
// Retries are bounded (4 rounds) so a permanently-partitioned
// minority reaches quiescence as "blocked" rather than polling forever.
package quorum

import (
	"termproto/internal/proto"
)

// retries bounds termination-mode polling rounds.
const retries = 4

// Protocol builds quorum-commit automata. The commit and abort quorums are
// both a majority, ⌊n/2⌋+1 sites, which satisfies Vc+Va > n.
type Protocol struct{}

// Name implements proto.Protocol.
func (Protocol) Name() string { return "quorum" }

// NewMaster implements proto.Protocol.
func (Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &site{cfg: cfg, state: "q1", isMaster: true}
}

// NewSlave implements proto.Protocol.
func (Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &site{cfg: cfg, state: "q"}
}

// site is one participant. Unlike the centralized protocols, every site
// shares the automaton: after a timeout, master and slaves all run the
// same symmetric termination procedure.
type site struct {
	cfg      proto.Config
	isMaster bool

	state string // q1/w1/p1/c1/a1 (master), q/w/p/c/a (slave)
	yes   proto.SiteSet
	acks  proto.SiteSet

	// Termination mode.
	terminating bool
	round       int
	replies     map[proto.SiteID]string // site -> reported state
	outcome     proto.Outcome
}

// State implements proto.Node; termination mode is reported with a "t:"
// prefix on the underlying state.
func (s *site) State() string {
	if s.terminating && s.outcome == proto.None {
		return "t:" + s.state
	}
	return s.state
}

func (s *site) Start(env proto.Env) {
	if !s.isMaster {
		return
	}
	if !env.Execute(s.cfg.Payload) {
		s.state = "a1"
		s.outcome = proto.Abort
		env.Decide(proto.Abort)
		return
	}
	env.SendAll(proto.MsgXact, s.cfg.Payload)
	s.state = "w1"
	env.ResetTimer(2 * env.T())
}

// prepared reports whether a local state name is a prepared (committable)
// state under the quorum rules.
func prepared(state string) bool { return state == "p" || state == "p1" }

func (s *site) OnMsg(env proto.Env, m proto.Msg) {
	if s.outcome != proto.None {
		// Decided sites still answer state requests so stragglers converge.
		if m.Kind == proto.MsgStateReq {
			env.Send(m.From, proto.MsgStateRep, []byte(s.state))
		}
		return
	}
	switch m.Kind {
	case proto.MsgStateReq:
		env.Send(m.From, proto.MsgStateRep, []byte(s.state))
		return
	case proto.MsgStateRep:
		if s.terminating {
			s.replies[m.From] = string(m.Payload)
		}
		return
	case proto.MsgCommit:
		s.decide(env, proto.Commit)
		return
	case proto.MsgAbort:
		s.decide(env, proto.Abort)
		return
	}
	if s.terminating {
		return
	}
	if s.isMaster {
		s.masterMsg(env, m)
	} else {
		s.slaveMsg(env, m)
	}
}

func (s *site) masterMsg(env proto.Env, m proto.Msg) {
	switch s.state {
	case "w1":
		switch m.Kind {
		case proto.MsgYes:
			s.yes.Add(m.From)
			if s.yes.ContainsAll(env.Slaves()) {
				env.SendAll(proto.MsgPrepare, nil)
				s.state = "p1"
				env.ResetTimer(2 * env.T())
			}
		case proto.MsgNo:
			env.StopTimer()
			env.SendAll(proto.MsgAbort, nil)
			s.state = "a1"
			s.decide(env, proto.Abort)
		}
	case "p1":
		if m.Kind == proto.MsgAck {
			s.acks.Add(m.From)
			if s.acks.ContainsAll(env.Slaves()) {
				env.StopTimer()
				env.SendAll(proto.MsgCommit, nil)
				s.state = "c1"
				s.decide(env, proto.Commit)
			}
		}
	}
}

func (s *site) slaveMsg(env proto.Env, m proto.Msg) {
	switch s.state {
	case "q":
		if m.Kind != proto.MsgXact {
			return
		}
		if env.Execute(m.Payload) {
			env.Send(env.MasterID(), proto.MsgYes, nil)
			s.state = "w"
			env.ResetTimer(3 * env.T())
		} else {
			env.Send(env.MasterID(), proto.MsgNo, nil)
			s.state = "a"
			s.decide(env, proto.Abort)
		}
	case "w":
		if m.Kind == proto.MsgPrepare {
			env.Send(env.MasterID(), proto.MsgAck, nil)
			s.state = "p"
			env.ResetTimer(3 * env.T())
		}
	}
}

// OnTimeout drives both the normal-mode timeouts (enter termination) and
// the termination-mode polling rounds.
func (s *site) OnTimeout(env proto.Env) {
	if s.outcome != proto.None {
		return
	}
	if !s.terminating {
		s.terminating = true
		s.round = 0
		env.Tracef("site %d enters quorum termination from %s", env.Self(), s.state)
	}
	// Close the previous polling round, if any.
	if s.replies != nil {
		s.evaluate(env)
		if s.outcome != proto.None {
			return
		}
		s.round++
		if s.round >= retries {
			env.Tracef("site %d gives up after %d rounds: blocked", env.Self(), s.round)
			return // blocked: no further events
		}
	}
	// Open a new round.
	s.replies = make(map[proto.SiteID]string)
	env.SendAll(proto.MsgStateReq, nil)
	env.ResetTimer(2*env.T() + 1)
}

func (s *site) evaluate(env proto.Env) {
	group := proto.NewSiteSet(env.Self())
	states := map[proto.SiteID]string{env.Self(): s.state}
	for id, st := range s.replies {
		group.Add(id)
		states[id] = st
	}
	// Only the lowest-numbered reachable site acts as surrogate; the rest
	// wait to be told (their next round may elect them if the surrogate
	// becomes unreachable).
	for _, id := range group.IDs() {
		if id < env.Self() {
			return
		}
	}
	q := len(env.Sites())/2 + 1 // the commit quorum Vc and the abort quorum Va
	anyCommit, anyAbort, anyPrepared := false, false, false
	for _, st := range states {
		switch {
		case st == "c" || st == "c1":
			anyCommit = true
		case st == "a" || st == "a1":
			anyAbort = true
		case prepared(st):
			anyPrepared = true
		}
	}
	switch {
	case anyCommit:
		s.broadcast(env, group, proto.MsgCommit)
		s.decide(env, proto.Commit)
	case anyAbort:
		s.broadcast(env, group, proto.MsgAbort)
		s.decide(env, proto.Abort)
	case anyPrepared && group.Len() >= q:
		env.Tracef("surrogate %d: prepared state with commit quorum %d/%d", env.Self(), group.Len(), q)
		s.broadcast(env, group, proto.MsgCommit)
		s.decide(env, proto.Commit)
	case !anyPrepared && group.Len() >= q:
		env.Tracef("surrogate %d: no prepared state, abort quorum %d/%d", env.Self(), group.Len(), q)
		s.broadcast(env, group, proto.MsgAbort)
		s.decide(env, proto.Abort)
	default:
		env.Tracef("surrogate %d: group %s too small (vc=%d va=%d), still blocked",
			env.Self(), group, q, q)
	}
}

func (s *site) broadcast(env proto.Env, group proto.SiteSet, kind proto.Kind) {
	for _, id := range group.IDs() {
		if id != env.Self() {
			env.Send(id, kind, nil)
		}
	}
}

// OnUndeliverable: the quorum protocol predates the optimistic model's
// exploitation — returned messages carry no protocol meaning here.
func (s *site) OnUndeliverable(proto.Env, proto.Msg) {}

func (s *site) decide(env proto.Env, o proto.Outcome) {
	if s.outcome != proto.None {
		return
	}
	env.StopTimer()
	s.outcome = o
	if s.isMaster {
		if o == proto.Commit {
			s.state = "c1"
		} else {
			s.state = "a1"
		}
	} else {
		if o == proto.Commit {
			s.state = "c"
		} else {
			s.state = "a"
		}
	}
	env.Decide(o)
}
