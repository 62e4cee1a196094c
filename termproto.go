// Package termproto is a Go reproduction of Huang & Li, "A Termination
// Protocol for Simple Network Partitioning in Distributed Database
// Systems" (ICDE 1987): the termination protocol that makes three-phase
// commit resilient to multisite simple network partitioning under the
// optimistic (return-to-sender) failure model, together with every
// comparator protocol the paper discusses, a deterministic discrete-event
// simulator with a partitionable network, a formal FSA analyzer, a
// database substrate (B-tree, WAL, lock manager) with durable crash
// recovery — WAL replay, in-doubt resolution via the termination
// protocol's inquiry round, anti-entropy catch-up — a live goroutine
// runtime, and the full experiment suite that regenerates the paper's
// figures and analytical tables.
//
// This package is the public facade: it re-exports the supported API from
// the internal packages. The examples/ directory shows typical usage; the
// cmd/ binaries (termsim, protoviz, experiments) are thin wrappers over
// the same surface.
//
// # Quick start: the Cluster API
//
// A Cluster is a long-lived execution surface: open it once, submit any
// number of concurrent transactions (each with its own master), script
// faults — partitions, heals, repartitions, site crashes and recoveries —
// as timeline events, and run the whole scenario on either of two
// pluggable backends: the deterministic discrete-event simulator
// (NewSimBackend) or the goroutine-per-site real-time runtime
// (NewLiveBackend).
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
//	fmt.Println(c.Termination()) // nil: every txn decided, atomically
//	fmt.Println(c.Stats())
//
// Times are virtual ticks: T = termproto.T = 1000 ticks is the longest
// end-to-end network delay, so the paper's timeout windows (2T, 3T, 5T,
// 6T) are exact multiples. The live backend maps 1000 ticks onto its
// configured wall-clock T.
//
// For one-off single-transaction experiments the deterministic Run
// harness remains available (see Options), and the E1–E15 experiment
// suite reproduces the paper's artifacts via Experiments.
package termproto

import (
	"termproto/internal/cluster"
	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/experiments"
	"termproto/internal/fsa"
	"termproto/internal/harness"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/protocol/fourpc"
	"termproto/internal/protocol/quorum"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/threepcrules"
	"termproto/internal/protocol/twopc"
	"termproto/internal/protocol/twopcext"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/workload"
)

// Core identifiers and protocol substrate.
type (
	// SiteID identifies a participating site; experiments number sites
	// 1..n with the master at 1, as in the paper.
	SiteID = proto.SiteID
	// TxnID identifies a distributed transaction.
	TxnID = proto.TxnID
	// Outcome is a site's final commit/abort verdict.
	Outcome = proto.Outcome
	// Protocol builds master and slave automata for a commit protocol.
	Protocol = proto.Protocol
)

// Outcomes.
const (
	None   = proto.None
	Commit = proto.Commit
	Abort  = proto.Abort
)

// Time is a point in virtual time (ticks).
type Time = sim.Time

// T is the longest end-to-end network delay in ticks; the protocol timeout
// windows are the paper's multiples of it (2T, 3T, 5T, 6T).
const T = sim.DefaultT

// Simulation and scenario types.
type (
	// Options configures a deterministic single-transaction run.
	Options = harness.Options
	// Result is a finished run: outcomes, blocking, trace, counters.
	Result = harness.Result
	// Voter scripts per-site votes.
	Voter = harness.Voter
	// Participant is the database-side hook (engine.Engine implements it).
	Participant = harness.Participant
	// Partition is a simple network partition (G2, onset, optional heal).
	Partition = simnet.Partition
	// Case is a Section 6 partition case label.
	Case = scenario.Case
)

// --- unified cluster API ---

type (
	// Cluster is the long-lived, backend-pluggable execution surface:
	// Open → Submit/SubmitBatch → Wait → Stats/Termination → Close.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes Open.
	ClusterConfig = cluster.Config
	// Txn is one transaction submitted to a Cluster.
	Txn = cluster.Txn
	// SimBackend is the deterministic discrete-event backend; SimOptions
	// tunes it.
	SimBackend = cluster.SimBackend
	SimOptions = cluster.SimOptions
	// LiveBackend is the goroutine/wall-clock backend; LiveOptions tunes
	// it.
	LiveBackend = cluster.LiveBackend
	LiveOptions = cluster.LiveOptions
	// Schedule is a timeline of fault events; ScheduleEvent is one entry.
	Schedule      = cluster.Schedule
	ScheduleEvent = cluster.Event
)

// Open starts a cluster (deterministic SimBackend unless configured).
func Open(cfg ClusterConfig) (*Cluster, error) { return cluster.Open(cfg) }

// Backend constructors.
var (
	NewSimBackend  = cluster.NewSimBackend
	NewLiveBackend = cluster.NewLiveBackend
)

// Schedule builders: partitions and heals as timeline events (times in
// ticks; T = 1000 ticks).
var (
	PartitionAt          = cluster.PartitionAt
	TransientPartitionAt = cluster.TransientPartitionAt
	HealAt               = cluster.HealAt
)

// Run executes one transaction deterministically and returns the result.
//
// Deprecated: Run remains for single-transaction timing experiments; new
// code should Open a Cluster, which multiplexes concurrent transactions
// and scripts faults on either backend.
func Run(opts Options) *Result { return harness.Run(opts) }

// G2 builds a partition group from site IDs.
func G2(ids ...SiteID) map[SiteID]bool { return simnet.G2Set(ids...) }

// NoAt votes no at the given sites and yes everywhere else.
var NoAt = harness.NoAt

// Classify assigns a completed run to its Section 6 case.
func Classify(r *Result, master SiteID) Case {
	return scenario.Classify(r.Trace, int(master))
}

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

// TwoPCExtended returns Rule(a)/(b)-augmented 2PC (Fig. 2) — two-site
// resilient, multisite inconsistent.
func TwoPCExtended() Protocol { return twopcext.Protocol{} }

// ThreePC returns three-phase commit (Fig. 3); modified selects the
// Figure 8 slave automaton.
func ThreePC(modified bool) Protocol { return threepc.Protocol{Modified: modified} }

// ThreePCRules returns Rule(a)/(b)-augmented 3PC — the Section 3
// counterexample protocol.
func ThreePCRules() Protocol { return threepcrules.Protocol{} }

// Quorum returns the quorum-based baseline (Skeen '82 style): atomic but
// blocking for minority partitions.
func Quorum() Protocol { return quorum.Protocol{} }

// Cooperative returns Skeen's cooperative termination protocol for SITE
// failures over 3PC — nonblocking when the master crashes, but unsafe
// under partitions (the contrast motivating the paper).
func Cooperative() Protocol { return cooperative.Protocol{} }

// FourPCTermination returns the Theorem 10 generalization: the termination
// construction over a four-phase commit protocol.
func FourPCTermination() Protocol { return fourpc.Protocol{TransientFix: true} }

// --- formal analysis ---

type (
	// FSAProtocol is a formal protocol model for reachability analysis.
	FSAProtocol = fsa.Protocol
	// Analysis holds concurrency sets, committability and lemma verdicts.
	Analysis = fsa.Analysis
	// StateID names a local state within a role.
	StateID = fsa.StateID
)

// Analyze explores all reachable global states of a formal model with n
// sites and derives concurrency sets, committability and lemma verdicts.
func Analyze(p *FSAProtocol, n int) *Analysis { return fsa.Analyze(p, n) }

// Formal models of the paper's protocols.
var (
	FSATwoPC   = fsa.TwoPC
	FSAThreePC = fsa.ThreePC
	FSAFourPC  = fsa.FourPC
)

// --- database substrate ---

type (
	// Engine is a site-local database: B-tree storage, WAL, lock manager.
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

// RecoverEngine rebuilds an engine from a stable log, returning in-doubt
// transaction IDs awaiting the termination protocol.
func RecoverEngine(name string, store wal.Store) (*Engine, []uint64, error) {
	return engine.Recover(name, store)
}

// EncodeOps serializes a transaction body for Options.Payload.
func EncodeOps(ops []Op) []byte { return engine.EncodeOps(ops) }

// EncodeInt / DecodeInt convert stored integer values.
var (
	EncodeInt = engine.EncodeInt
	DecodeInt = engine.DecodeInt
)

// --- experiments ---

type (
	// ExperimentTable is one experiment's printable output.
	ExperimentTable = experiments.Table
	// ExperimentConfig tunes sweep sizes.
	ExperimentConfig = experiments.Config
)

// Experiments runs the full E1–E15 suite reproducing the paper.
func Experiments(cfg ExperimentConfig) []*ExperimentTable { return experiments.All(cfg) }

// --- workloads ---

type (
	// WorkloadConfig parameterizes a multi-transaction banking workload
	// over replicated engines.
	WorkloadConfig = workload.Config
	// WorkloadStats summarizes a workload run.
	WorkloadStats = workload.Stats
)

// RunWorkload executes transfer transactions through a commit protocol on
// one shared cluster timeline, optionally injecting partitions, and
// returns statistics plus the per-site engines. WorkloadConfig.Concurrency
// keeps several transfers in flight at once.
//
// Deprecated: RunWorkload remains as a convenience; it is a thin wrapper
// over the Cluster API, which new code should use directly.
func RunWorkload(cfg WorkloadConfig) (WorkloadStats, map[SiteID]*Engine) {
	return workload.Run(cfg)
}
