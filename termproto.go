// Package termproto is a Go reproduction of Huang & Li, "A Termination
// Protocol for Simple Network Partitioning in Distributed Database
// Systems" (ICDE 1987): the termination protocol that makes three-phase
// commit resilient to multisite simple network partitioning under the
// optimistic (return-to-sender) failure model, together with every
// comparator protocol the paper discusses, a deterministic discrete-event
// simulator with a partitionable network, a formal FSA analyzer, a
// database substrate (rows, WAL, exclusive no-wait locks) with durable
// crash recovery — WAL replay, in-doubt resolution via the termination
// protocol's inquiry round, anti-entropy catch-up — real-process
// daemons, and the full experiment suite that regenerates the paper's
// figures and analytical tables.
//
// This package is the public facade the examples/ directory is written
// against: the Cluster API, the protocols the examples run, the FSA
// analyzer and the database engine. The cmd/ binaries and the tests use
// the internal packages directly.
//
// # Quick start: the Cluster API
//
// A Cluster is a long-lived execution surface: open it once, submit any
// number of concurrent transactions (each with its own master), script
// faults — partitions, heals, repartitions, site crashes and recoveries —
// as timeline events, and run the whole scenario on the deterministic
// discrete-event simulator (NewSimBackend, the default). The same API
// drives real termnode daemons through internal/cluster's NetBackend
// (cmd/termsim -backend net).
//
//	c, err := termproto.Open(termproto.ClusterConfig{
//	    Sites:    5,
//	    Protocol: termproto.TerminationTransient(),
//	    Schedule: termproto.Schedule{
//	        termproto.PartitionAt(2500, 4, 5), // 2.5T: sites 4,5 separated
//	        termproto.HealAt(9000),            // 9T: boundary disappears
//	    },
//	})
//	if err != nil { ... }
//	defer c.Close()
//	for i := 0; i < 10; i++ {
//	    c.Submit(termproto.Txn{}) // concurrent all-yes transactions
//	}
//	c.Wait()
//	fmt.Println(c.Verify()) // []: every txn decided, atomically
//	fmt.Println(c.Stats())
//
// Times are virtual ticks: T = termproto.T = 1000 ticks is the longest
// end-to-end network delay, so the paper's timeout windows (2T, 3T, 5T,
// 6T) are exact multiples.
package termproto

import (
	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/fsa"
	"termproto/internal/proto"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/twopc"
	"termproto/internal/scenario"
	"termproto/internal/sim"
)

// Core identifiers and protocol substrate.
type (
	// SiteID identifies a participating site; sites are numbered 1..n
	// with the master at 1, as in the paper.
	SiteID = proto.SiteID
	// Outcome is a site's final commit/abort verdict.
	Outcome = proto.Outcome
	// Protocol builds master and slave automata for a commit protocol.
	Protocol = proto.Protocol
	// Case is a Section 6 partition case label.
	Case = scenario.Case
)

// None is the outcome of a site that has not decided.
const None = proto.None

// Time is a point in virtual time (ticks).
type Time = sim.Time

// T is the longest end-to-end network delay in ticks; the protocol timeout
// windows are the paper's multiples of it (2T, 3T, 5T, 6T).
const T = sim.DefaultT

// --- unified cluster API ---

type (
	// Cluster is the long-lived execution surface:
	// Open → Submit/SubmitBatch → Wait → Stats/Verify → Close.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes Open.
	ClusterConfig = cluster.Config
	// Txn is one transaction submitted to a Cluster.
	Txn = cluster.Txn
	// SimBackend is the deterministic discrete-event backend; SimOptions
	// tunes it.
	SimBackend = cluster.SimBackend
	SimOptions = cluster.SimOptions
	// Schedule is a timeline of fault events; ScheduleEvent is one entry.
	Schedule      = cluster.Schedule
	ScheduleEvent = cluster.Event
)

// Open starts a cluster (deterministic SimBackend unless configured).
func Open(cfg ClusterConfig) (*Cluster, error) { return cluster.Open(cfg) }

// NewSimBackend returns a deterministic simulator backend.
func NewSimBackend(opts SimOptions) *SimBackend { return cluster.NewSimBackend(opts) }

// Schedule builders: partitions and heals as timeline events (times in
// ticks; T = 1000 ticks).
var (
	PartitionAt          = cluster.PartitionAt
	TransientPartitionAt = cluster.TransientPartitionAt
	HealAt               = cluster.HealAt
)

// ClassifyTrace assigns a sim-backend cluster run to its Section 6 case.
// The backend must have been built with SimOptions.RecordTrace.
func ClassifyTrace(b *SimBackend, master SiteID) Case {
	return scenario.Classify(b.Trace(), int(master))
}

// --- protocols ---

// Termination returns the paper's termination protocol (§5.3) over
// modified three-phase commit — its primary contribution.
func Termination() Protocol { return core.Protocol{} }

// TerminationTransient returns the termination protocol with the §6 fix,
// valid under transient partitioning too.
func TerminationTransient() Protocol { return core.Protocol{TransientFix: true} }

// TerminationOptions exposes the configurable variant (extensions and the
// Figure 8 ablation switch).
type TerminationOptions = core.Protocol

// TwoPC returns pure two-phase commit (Fig. 1) — blocks under partitions.
func TwoPC() Protocol { return twopc.Protocol{} }

// ThreePC returns pure three-phase commit (Fig. 3) — blocks under
// partitions.
func ThreePC() Protocol { return threepc.Protocol{} }

// --- formal analysis ---

type (
	// Analysis holds concurrency sets, committability and lemma verdicts.
	Analysis = fsa.Analysis
	// StateID names a local state within a role.
	StateID = fsa.StateID
)

// Analyze explores all failure-free global states of p's automata with n
// sites and derives concurrency sets, committability and lemma verdicts.
func Analyze(p Protocol, n int) *Analysis { return fsa.Analyze(p, n) }

// --- database substrate ---

type (
	// Engine is a site-local database: rows in a map, WAL, lock table.
	Engine = engine.Engine
	// Op is one operation in a transaction body.
	Op = engine.Op
	// MemStore is an in-memory stable store.
	MemStore = wal.MemStore
)

// OpAdd is the database operation kind that adds Delta to an integer value.
const OpAdd = engine.OpAdd

// NewEngine builds a site database logging to the given stable store.
func NewEngine(name string, store wal.Store) *Engine { return engine.New(name, store) }

// EncodeOps serializes a transaction body for Txn.Payload.
func EncodeOps(ops []Op) []byte { return engine.EncodeOps(ops) }
