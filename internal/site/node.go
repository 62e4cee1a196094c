package site

import (
	"slices"
	"sync"

	"termproto/internal/db/engine"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// Node is one incarnation of one site's non-I/O half, assembled the same
// way by both backends: the Table its automata live in, the site's round
// latencies, and — when the participant is a storage engine — everything
// around that engine: its metrics and placement wiring, the table's wound
// rule and lock-wait counts, the directory epoch records its log must
// hold, recovery and the heal-edge retry of what it left in doubt
// (recover.go), and Txn's fallback to durable state.
//
// The simulator steps a Node's table from its scheduler, a Loop from its
// inbox. A crash is Close; a restart is a fresh Node over the same
// participant, followed by Recover.
type Node struct {
	*Table
	self  proto.SiteID
	clock Clock
	sites []proto.SiteID
	dir   *placement.Directory
	eng   *engine.Engine // nil unless the participant is a storage engine
	// onDecide is the backend's own decision hook, chained after the
	// node's observations.
	onDecide func(cfg proto.Config, o proto.Outcome, at sim.Time)

	// Round latencies in thousandths of T since the site learned of the
	// transaction: the prepared edge (engine sites), the decided edge,
	// and commits per shard.
	prepared, decided *obs.Histogram
	shardCommit       *obs.HistogramVec

	// The recovery step machine (stepping goroutine only): the pass
	// running, the retries waiting for it, and whether the site donates.
	rec     *pass
	retries []func(recovery.Stats, bool)
	serving bool

	mu      sync.Mutex
	pending []engine.InDoubt // in-doubt transactions recovery left unresolved
}

// NewNode assembles one incarnation of site s under protocol. sites is the
// cluster's roster, ascending; dir places the keyspace (nil: full
// replication); reg receives the site's metrics (nil: none). s.OnDecide
// runs after the node's own decision observations.
func NewNode(s Site, protocol proto.Protocol, sites []proto.SiteID, dir *placement.Directory,
	reg *obs.Registry) *Node {
	n := &Node{
		self: s.ID, clock: s.Clock, sites: sites, dir: dir, onDecide: s.OnDecide,
		serving: true,
		decided: reg.Histogram(obs.MRoundLatency,
			obs.L("protocol", protocol.Name()), obs.L("phase", "decided")),
		shardCommit: reg.NewHistogramVec(obs.MShardCommitLatency, "shard"),
	}
	if eng, ok := s.Participant.(*engine.Engine); ok && eng != nil {
		n.eng = eng
		n.prepared = reg.Histogram(obs.MRoundLatency,
			obs.L("protocol", protocol.Name()), obs.L("phase", "prepared"))
		var shardOf func(key string) int
		if dir != nil {
			shardOf = func(key string) int {
				_, asg := dir.Current()
				return asg.ShardOf(key)
			}
			// Replay and catch-up consult the predicate, so it is in
			// place before any recovery.
			eng.SetPlacement(func(key string) bool { return dir.Hosts(s.ID, key) })
		}
		eng.SetMetrics(reg, shardOf)
		s.Participant = participant{eng, n}
	}
	s.OnDecide = n.decide
	n.Table = NewTable(s, protocol)
	if n.eng != nil {
		n.eng.SetWound(n.Table.wound)
		if db := obs.NewDB(reg); db != nil {
			n.Table.waited = func(spec Spec, outcome int) {
				db.LockWaits[outcome].At(n.payloadShard(spec.Payload)).Inc()
			}
		}
	}
	return n
}

// Engine returns the site's storage engine (nil when its participant is
// not one).
func (n *Node) Engine() *engine.Engine { return n.eng }

// InstallPlacement writes every directory epoch record the engine's log
// lacks, durably (RecApply), so that the log alone reproduces the site's
// placement history at its next restart. It returns how many it wrote:
// none when the log already held the directory's stack.
func (n *Node) InstallPlacement() int {
	if n.eng == nil || n.dir == nil {
		return 0
	}
	wrote := 0
	for e := placement.Epoch(0); ; e++ {
		asg := n.dir.At(e)
		if asg == nil {
			return wrote
		}
		key := placement.EpochKey(e)
		if _, have := n.eng.Get(key); !have {
			n.eng.Put(key, placement.EncodeAssignment(asg))
			wrote++
		}
	}
}

// plan is the site's recovery over the directory's current assignment.
func (n *Node) plan() ([]proto.SiteID, []recovery.CatchUpSource) {
	var asg *placement.Assignment
	if n.dir != nil {
		_, asg = n.dir.Current()
	}
	return recovery.Plan(n.self, n.sites, asg)
}

// Deliver hands the node a message from the transport: recovery traffic
// to the step machine, anything else to the table.
func (n *Node) Deliver(m proto.Msg) {
	if !n.recoveryMsg(m) {
		n.Table.Deliver(m)
		return
	}
	n.Table.stepped()
}

// Undeliverable implements simnet.Handler: the network marked m returned.
func (n *Node) Undeliverable(m proto.Msg) { n.Deliver(m) }

// Close silences every automaton's timer, drops every parked transaction
// and stops a recovery cut short; the view stays readable.
func (n *Node) Close() {
	n.Table.Close()
	if p := n.rec; p != nil && p.stop != nil {
		p.stop()
	}
	n.rec, n.retries = nil, nil
}

// Txn returns the site's view of one transaction; ok is false when the
// site never took part in it. One this incarnation never hosted — decided
// before a restart, or still in doubt in the log — is answered from
// durable state: its decision, or state "q" while in doubt.
func (n *Node) Txn(tid proto.TxnID) (st Status, ok bool) {
	if st, ok := n.Table.Txn(tid); ok || n.eng == nil {
		return st, ok
	}
	st = Status{TID: tid, State: "q"}
	if o, done := n.eng.Outcome(uint64(tid)); done && o != proto.None {
		st.Outcome = o
		return st, true
	}
	return st, slices.Contains(n.eng.InDoubt(), uint64(tid))
}

// since is the time from the moment the site learned of tid to at, in
// thousandths of T; ok is false for a transaction this incarnation does
// not host.
func (n *Node) since(tid proto.TxnID, at sim.Time) (int64, bool) {
	st, ok := n.Table.Txn(tid)
	return int64(at-st.StartedAt) * 1000 / int64(n.clock.T()), ok
}

// decide is the table's decision hook: it observes the decided edge and,
// for a commit, the commit latency of the shard the body is attributed
// to, then runs the backend's hook.
func (n *Node) decide(cfg proto.Config, o proto.Outcome, at sim.Time) {
	if lat, ok := n.since(cfg.TID, at); ok {
		n.decided.Observe(lat)
		if o == proto.Commit {
			n.shardCommit.At(n.payloadShard(cfg.Payload)).Observe(lat)
		}
	}
	if n.onDecide != nil {
		n.onDecide(cfg, o, at)
	}
}

// payloadShard attributes a transaction body to its first data shard; 0
// under full replication or for a body with no data shards.
func (n *Node) payloadShard(payload []byte) int {
	if n.dir == nil {
		return 0
	}
	_, asg := n.dir.Current()
	if shards := asg.DataShards(payload); len(shards) > 0 {
		return shards[0]
	}
	return 0
}

// participant is the engine as the table sees it: a stager. A payload-less
// transaction has no database ops and votes yes without touching the
// engine; every yes vote is observed where it becomes durable (a slave's
// right after its StageAt, a master's once its xacts are out) — the
// prepared edge.
type participant struct {
	*engine.Engine
	n *Node
}

func (p participant) StageAt(tid proto.TxnID, payload []byte, sites []proto.SiteID) bool {
	return len(payload) == 0 || p.Engine.StageAt(tid, payload, sites)
}

func (p participant) Force(tid proto.TxnID) bool {
	vote := p.Engine.Force(tid) // true when nothing was staged
	if lat, ok := p.n.since(tid, p.n.clock.Now()); ok && vote {
		p.n.prepared.Observe(lat)
	}
	return vote
}
