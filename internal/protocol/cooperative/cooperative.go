// Package cooperative implements Skeen's termination protocol for SITE
// failures over three-phase commit (SIGMOD 1981) — the complement Huang &
// Li's §7 leans on when it assumes "masters never fail": master failure is
// handled by this protocol, network partitioning by theirs, and the two
// failure classes must not occur concurrently (no protocol survives both).
//
// Normal operation is modified 3PC. When a slave times out it starts an
// election among the slaves: every operational slave reports its local
// state to the lowest-numbered slave it can hear from, which becomes the
// backup coordinator and applies Skeen's termination rule over the
// collected states:
//
//   - some site committed            → commit everyone reachable
//   - some site aborted              → abort everyone reachable
//   - some site prepared (in p)      → first move every w-site to p
//     (send prepare, collect acks), then commit everyone — safe because a
//     prepared state proves every site voted yes (committability)
//   - nobody prepared                → abort everyone — safe because the
//     failed master cannot have committed without every ack
//
// The rule is nonblocking for any number of *site* failures (the paper's
// Fundamental Nonblocking Theorem applies: 3PC satisfies Lemmas 1 and 2),
// but NOT for partitions — a partitioned minority of slaves will happily
// terminate on its own and diverge, which experiment-level tests
// demonstrate as a contrast with internal/core.
package cooperative

import (
	"maps"
	"slices"

	"termproto/internal/proto"
)

// Protocol builds cooperative-termination 3PC automata.
type Protocol struct{}

// Name implements proto.Protocol.
func (Protocol) Name() string { return "3pc-cooperative" }

// NewMaster implements proto.Protocol.
func (Protocol) NewMaster(cfg proto.Config) proto.Node {
	return &site{cfg: cfg, isMaster: true, state: "q1"}
}

// NewSlave implements proto.Protocol.
func (Protocol) NewSlave(cfg proto.Config) proto.Node {
	return &site{cfg: cfg, state: "q"}
}

// site is one participant; slaves share the election logic.
type site struct {
	cfg      proto.Config
	isMaster bool

	state string
	yes   proto.SiteSet
	acks  proto.SiteSet

	// Election state (slaves only).
	electing   bool
	reports    map[proto.SiteID]string
	termAcks   proto.SiteSet
	committing bool
	outcome    proto.Outcome
}

// State implements proto.Node; an electing slave is prefixed "e:".
func (s *site) State() string {
	if s.electing && s.outcome == proto.None {
		return "e:" + s.state
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

func (s *site) decide(env proto.Env, o proto.Outcome) {
	if s.outcome != proto.None {
		return
	}
	env.StopTimer()
	s.outcome = o
	suffix := ""
	if s.isMaster {
		suffix = "1"
	}
	if o == proto.Commit {
		s.state = "c" + suffix
	} else {
		s.state = "a" + suffix
	}
	env.Decide(o)
}

func (s *site) OnMsg(env proto.Env, m proto.Msg) {
	// State reports flow regardless of decision status so stragglers and
	// late electors converge.
	switch m.Kind {
	case proto.MsgStateReq:
		env.Send(m.From, proto.MsgStateRep, []byte(s.state))
		return
	case proto.MsgStateRep:
		if s.electing && s.reports != nil {
			s.reports[m.From] = string(m.Payload)
		}
		return
	}
	if s.outcome != proto.None {
		return
	}
	switch m.Kind {
	case proto.MsgCommit:
		s.decide(env, proto.Commit)
		return
	case proto.MsgAbort:
		s.decide(env, proto.Abort)
		return
	}
	if s.isMaster {
		s.masterMsg(env, m)
		return
	}
	s.slaveMsg(env, m)
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
			env.SendAll(proto.MsgAbort, nil)
			s.decide(env, proto.Abort)
		}
	case "p1":
		if m.Kind == proto.MsgAck {
			s.acks.Add(m.From)
			if s.acks.ContainsAll(env.Slaves()) {
				env.SendAll(proto.MsgCommit, nil)
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
			s.decide(env, proto.Abort)
		}
	case "w":
		if m.Kind == proto.MsgPrepare {
			// A prepare may come from the master or from a backup
			// coordinator finishing the termination rule.
			env.Send(m.From, proto.MsgAck, nil)
			s.state = "p"
			env.ResetTimer(3 * env.T())
		}
	case "p":
		if m.Kind == proto.MsgPrepare {
			// Duplicate prepare from a backup coordinator: re-ack.
			env.Send(m.From, proto.MsgAck, nil)
		}
	}
	if s.electing && m.Kind == proto.MsgAck && s.committing {
		s.termAcks.Add(m.From)
		if s.collectedAllAcks(env) {
			s.finishCommit(env)
		}
	}
}

// OnTimeout drives both normal-phase timeouts (start an election) and the
// election's collection windows.
func (s *site) OnTimeout(env proto.Env) {
	if s.outcome != proto.None || s.isMaster {
		// A master that cannot finish its round has effectively failed;
		// the paper's model has masters never failing *and* this protocol
		// existing precisely for when they do. The master stays silent
		// and lets the slaves elect. (It can still be decided later by a
		// commit/abort from the backup coordinator.)
		return
	}
	if !s.electing {
		s.electing = true
		s.reports = make(map[proto.SiteID]string)
		env.Tracef("slave %d starts election from %s", env.Self(), s.state)
		env.SendAll(proto.MsgStateReq, nil)
		env.ResetTimer(2*env.T() + 1)
		return
	}
	if s.committing {
		// Ack collection closed: commit whoever answered; the silent
		// sites are failed (this protocol assumes no partitions).
		s.finishCommit(env)
		return
	}
	s.evaluate(env)
}

func (s *site) collectedAllAcks(env proto.Env) bool {
	for id, st := range s.reports {
		if st == "w" && !s.termAcks.Has(id) {
			return false
		}
	}
	return true
}

func (s *site) finishCommit(env proto.Env) {
	for _, id := range s.reporters() {
		env.Send(id, proto.MsgCommit, nil)
	}
	s.decide(env, proto.Commit)
}

// evaluate applies Skeen's termination rule over the collected reports.
// A reported decision is adopted unconditionally; otherwise only the
// lowest-numbered reporting slave acts, and the others re-poll (a later
// round elects them if the coordinator dies too).
func (s *site) evaluate(env proto.Env) {
	anyCommit, anyAbort, anyPrepared := false, false, false
	states := map[proto.SiteID]string{env.Self(): s.state}
	for id, st := range s.reports {
		states[id] = st
	}
	for _, st := range states {
		switch st {
		case "c", "c1":
			anyCommit = true
		case "a", "a1":
			anyAbort = true
		case "p", "p1":
			anyPrepared = true
		}
	}
	if !anyCommit && !anyAbort {
		for id, st := range s.reports {
			// Defer only to a smaller slave that is actually running the
			// protocol (w or p): it will coordinate and decide. A slave
			// still in q never will (its xact bounced), and a decided one
			// is already handled above.
			if id != env.MasterID() && id < env.Self() && (st == "w" || st == "p") {
				s.reports = make(map[proto.SiteID]string)
				env.SendAll(proto.MsgStateReq, nil)
				env.ResetTimer(2*env.T() + 1)
				return
			}
		}
	}
	switch {
	case anyCommit:
		s.broadcastDecision(env, proto.MsgCommit)
		s.decide(env, proto.Commit)
	case anyAbort:
		s.broadcastDecision(env, proto.MsgAbort)
		s.decide(env, proto.Abort)
	case anyPrepared:
		// Move the w-sites to p first (they must not abort on their own
		// timers while we commit), then commit everyone.
		env.Tracef("coordinator %d: prepared state present, completing commit", env.Self())
		s.committing = true
		if s.state == "w" {
			s.state = "p"
		}
		for _, id := range s.reporters() {
			if s.reports[id] == "w" {
				env.Send(id, proto.MsgPrepare, nil)
			} else {
				s.termAcks.Add(id)
			}
		}
		if s.collectedAllAcks(env) {
			s.finishCommit(env)
			return
		}
		env.ResetTimer(2 * env.T())
	default:
		// Nobody prepared: the master cannot have committed.
		env.Tracef("coordinator %d: nobody prepared, aborting", env.Self())
		s.broadcastDecision(env, proto.MsgAbort)
		s.decide(env, proto.Abort)
	}
}

func (s *site) broadcastDecision(env proto.Env, kind proto.Kind) {
	for _, id := range s.reporters() {
		env.Send(id, kind, nil)
	}
}

// reporters lists the sites that answered the election in ascending order:
// every fan-out over the reports sends in this order, so a run is a pure
// function of its seed rather than of map iteration.
func (s *site) reporters() []proto.SiteID { return slices.Sorted(maps.Keys(s.reports)) }

// OnUndeliverable: this protocol is for site failures, not partitions; it
// does not exploit the optimistic model's returned messages.
func (s *site) OnUndeliverable(proto.Env, proto.Msg) {}
