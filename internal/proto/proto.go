// Package proto defines the substrate shared by every commit protocol in
// the repository: site and transaction identifiers, the message vocabulary,
// the Env abstraction through which an automaton acts on the world, and the
// Node automaton interface.
//
// All protocols (two-phase commit, extended two-phase commit, three-phase
// commit and its rule-augmented variant, the Huang–Li termination protocol,
// and the quorum baseline) are implemented as pure event-driven state
// machines against these interfaces, so the same automaton code runs under
// the deterministic simulator and in the termnode daemons.
package proto

import (
	"fmt"

	"termproto/internal/sim"
)

// SiteID identifies a participating site. By convention experiments number
// sites 1..n with the master at 1, matching the paper, but nothing in the
// code requires it.
type SiteID int

// TxnID identifies a distributed transaction.
type TxnID uint64

// Outcome is a site's final verdict on a transaction.
type Outcome uint8

// Transaction outcomes.
const (
	None Outcome = iota // undecided
	Commit
	Abort
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case None:
		return "none"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Kind is a protocol message type. The core vocabulary follows the paper's
// Figures 1, 3 and Section 5.3; the quorum baseline extends it.
type Kind uint8

// Message kinds.
const (
	MsgXact    Kind = iota + 1 // master -> slave: the transaction ("Xact")
	MsgYes                     // slave -> master: intent to commit
	MsgNo                      // slave -> master: unilateral abort
	MsgPrepare                 // master -> slave: 3PC prepare
	MsgAck                     // slave -> master: 3PC prepare acknowledgement
	MsgCommit                  // commit command (master or G2 slave)
	MsgAbort                   // abort command
	MsgProbe                   // termination protocol: probe(trans_id, slave_id)
	MsgPre                     // four-phase generalization: pre-prepare stage
	MsgPreAck                  // four-phase generalization: pre-prepare ack

	// Quorum baseline vocabulary (Skeen '82 style termination).
	MsgStateReq // elected surrogate asks group members for their state
	MsgStateRep // member replies with its local state
	MsgQPrepare // surrogate: move to prepared (quorum path)
	MsgQAck     // member ack for MsgQPrepare

	// Recovery vocabulary (§7): a restarting site resolving an in-doubt
	// transaction asks a participant for its durable decision; the answer
	// is a plain MsgCommit/MsgAbort.
	MsgInquire

	// Termination protocol, beyond the paper: a master inside its UD/PB
	// window asks a slave whose ack it holds for its probe now, instead
	// of waiting out the slave's 3T timer (see Window).
	MsgSolicit // master -> slave: send your probe

	// Recovery vocabulary, second question: a restarting site asks for a
	// replica's committed state, and the reply carries one key-ordered
	// chunk of it (see site.Node).
	MsgSnapshot
)

// String returns the wire name of the kind, matching the paper's message
// names where one exists.
func (k Kind) String() string {
	switch k {
	case MsgXact:
		return "xact"
	case MsgYes:
		return "yes"
	case MsgNo:
		return "no"
	case MsgPrepare:
		return "prepare"
	case MsgAck:
		return "ack"
	case MsgCommit:
		return "commit"
	case MsgAbort:
		return "abort"
	case MsgProbe:
		return "probe"
	case MsgPre:
		return "pre"
	case MsgPreAck:
		return "preack"
	case MsgStateReq:
		return "state-req"
	case MsgStateRep:
		return "state-rep"
	case MsgQPrepare:
		return "q-prepare"
	case MsgQAck:
		return "q-ack"
	case MsgInquire:
		return "inquire"
	case MsgSolicit:
		return "solicit"
	case MsgSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is a protocol message. Undeliverable marks a returned copy delivered
// back to its original sender under the optimistic partition model.
type Msg struct {
	TID     TxnID
	From    SiteID
	To      SiteID
	Kind    Kind
	Payload []byte

	// Undeliverable is set on the copy returned to the sender when the
	// message could not cross the partition boundary.
	Undeliverable bool

	// Seq is a network-assigned unique sequence number; SentAt is the
	// virtual send time. Both are informational (tracing, debugging).
	Seq    uint64
	SentAt sim.Time

	// Slack is how much later than its delivery the message could still
	// have arrived inside its network's delay bound, in the receiving
	// clock's ticks: the transport stamps it, and a site may hold the
	// message that long before acting on it, a slower hop the protocols
	// already allow for. Zero: none.
	Slack sim.Duration
}

// String formats the message compactly.
func (m Msg) String() string {
	ud := ""
	if m.Undeliverable {
		ud = "UD("
	}
	s := fmt.Sprintf("%s%s", ud, m.Kind)
	if m.Undeliverable {
		s += ")"
	}
	return fmt.Sprintf("%s %d->%d tid=%d", s, m.From, m.To, m.TID)
}

// Env is the world a protocol automaton acts on: its identity, the
// participant roster, messaging, a single resettable timer, partial
// execution of the transaction body, and the final decision. Exactly one
// timer may be pending per automaton at a time — every protocol in the
// paper needs at most one — so ResetTimer replaces any pending timer.
type Env interface {
	// Self returns this site's identifier.
	Self() SiteID
	// MasterID returns the transaction's master site.
	MasterID() SiteID
	// Sites returns all participants, master included, in stable order.
	Sites() []SiteID
	// Slaves returns all participants except the master, in stable order.
	Slaves() []SiteID
	// Now returns the current virtual time.
	Now() sim.Time
	// T returns the longest end-to-end propagation delay bound.
	T() sim.Duration

	// Send transmits a message of the given kind to one site.
	Send(to SiteID, kind Kind, payload []byte)
	// SendAll transmits to every participant except Self.
	SendAll(kind Kind, payload []byte)

	// ResetTimer arms the automaton's timer to fire after d, replacing any
	// pending timer. StopTimer cancels it.
	ResetTimer(d sim.Duration)
	StopTimer()

	// Execute partially executes the transaction body at this site and
	// returns the local vote: true to commit ("yes"), false to abort.
	Execute(payload []byte) bool

	// Decide records this site's final outcome and applies it to the local
	// database participant. Calling Decide twice with different outcomes
	// panics: it would be an atomicity bug in the calling automaton.
	Decide(o Outcome)

	// Tracef appends a free-form note to the run trace.
	Tracef(format string, args ...any)
}

// Node is an event-driven protocol automaton for one site's role in one
// transaction. Implementations must be deterministic: all nondeterminism
// comes from the environment (message timing, partitions).
type Node interface {
	// Start runs when the transaction begins at this site. Masters send the
	// initial round here; slaves are created on first message delivery, and
	// Start runs immediately before that delivery is handed to OnMsg.
	Start(env Env)
	// OnMsg handles a delivered message (m.Undeliverable is false).
	OnMsg(env Env, m Msg)
	// OnUndeliverable handles the return of a message this site sent
	// (m.Undeliverable is true; From/To are the original fields).
	OnUndeliverable(env Env, m Msg)
	// OnTimeout handles expiry of the automaton's timer.
	OnTimeout(env Env)
	// State returns the current local state name for traces and analysis,
	// using the paper's names ("q", "w", "p", "c", "a", ...).
	State() string
}

// Config carries everything needed to instantiate one site's automaton for
// one transaction.
type Config struct {
	TID     TxnID
	Self    SiteID
	Master  SiteID
	Sites   []SiteID // all participants, master included
	Payload []byte   // transaction body forwarded in MsgXact
}

// Slaves returns the participant list without the master.
func (c Config) Slaves() []SiteID {
	out := make([]SiteID, 0, len(c.Sites)-1)
	for _, s := range c.Sites {
		if s != c.Master {
			out = append(out, s)
		}
	}
	return out
}

// IsMaster reports whether this config is for the master role.
func (c Config) IsMaster() bool { return c.Self == c.Master }

// Voter decides a site's vote when no database participant is attached.
type Voter func(site SiteID, tid TxnID, payload []byte) bool

// AllYes votes yes at every site.
func AllYes(SiteID, TxnID, []byte) bool { return true }

// NoAt votes no at exactly the given sites and yes elsewhere.
func NoAt(sites ...SiteID) Voter {
	no := NewSiteSet(sites...)
	return func(s SiteID, _ TxnID, _ []byte) bool { return !no.Has(s) }
}

// Participant is the database-side hook at one site: partial execution
// produces the vote, and the decision is applied locally.
// internal/db/engine.Engine implements it.
type Participant interface {
	Execute(tid TxnID, payload []byte) bool
	Commit(tid TxnID)
	Abort(tid TxnID)
}

// Protocol creates automata for the two roles of a centralized
// master/slave commit protocol.
type Protocol interface {
	// Name identifies the protocol in traces, tables and CLIs.
	Name() string
	// NewMaster returns the master automaton.
	NewMaster(cfg Config) Node
	// NewSlave returns a slave automaton.
	NewSlave(cfg Config) Node
}
