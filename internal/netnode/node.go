package netnode

import (
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/site"
	"termproto/internal/trace"
)

// Options parameterizes one site process.
type Options struct {
	// ID is this site's identifier.
	ID proto.SiteID
	// Protocol is the commit protocol automaton family.
	Protocol proto.Protocol
	// T is the longest end-to-end delay bound; per-message delays are
	// drawn from [T/4, T/2). Defaults to 50ms — wide enough that protocol
	// timing dominates process scheduling jitter.
	T time.Duration
	// Addr is the protocol listen address (":0" picks a free port).
	Addr string
	// Peers maps every site (self included) to its protocol address.
	Peers map[proto.SiteID]string
	// APIPeers optionally maps peers to their admin API addresses; the
	// recovery catch-up pull needs them. Empty disables catch-up.
	APIPeers map[proto.SiteID]string
	// Placement is the static sharded assignment this localnet was
	// provisioned with (epoch 0); nil means full replication. The node
	// hosts only the shards whose replica sets include it, scopes its
	// recovery to those shards, and on a fresh boot writes the epoch-0
	// directory record durably to its own WAL — a restart recovers the
	// placement epoch from the log, not from this option.
	Placement *placement.Assignment
	// Store overrides the write-ahead log store (in-process tests);
	// nil opens WALPath as a file-backed store.
	Store wal.Store
	// WALPath is the site's write-ahead log file.
	WALPath string
	// Seed drives the link-delay generator (0 derives one from ID).
	Seed int64
	// Blocked is the partition in force at start-up (a restart during a
	// cut): the link bounces from the first message recovery sends.
	Blocked []proto.SiteID
	// TraceOut, when set, makes the node record its protocol-visible
	// events (automaton state transitions, decisions) and export them as
	// a JSONL trace (trace.WriteJSONL) to this path at Close. Relative
	// paths are the caller's working directory — cmd/termnode resolves
	// them under the node's workspace.
	TraceOut string
	// Logf receives diagnostic lines; nil discards them.
	Logf func(format string, args ...any)
}

// TxnInfo is one transaction's bookkeeping at this site, as the admin API
// reports it.
type TxnInfo struct {
	TID       proto.TxnID
	Master    proto.SiteID
	Sites     []proto.SiteID
	Outcome   proto.Outcome
	DecidedAt time.Time
	Started   bool
	State     string
}

// Node is one site of the termination protocol as a network process: the
// shared site loop (site.Loop) over a TCP transport, plus what is the
// daemon's own — a WAL-backed storage engine, startup recovery and
// placement, the metrics registry, the trace export. cmd/termnode wraps it
// in a daemon; tests can run several in one process over real sockets.
type Node struct {
	opts Options
	eng  *engine.Engine
	loop *site.Loop
	tr   *transport
	file *wal.FileStore // non-nil when we opened WALPath ourselves
	addr string
	wg   sync.WaitGroup

	mu       sync.Mutex
	pending  []engine.InDoubt // in-doubt txns recovery left unresolved
	recStats *recovery.Stats  // startup recovery result
	recErr   error
	api      *http.Server
	closed   bool
	// wires are the connections handleWire hijacked from the API server,
	// which no longer closes them; their handlers are counted in wg.
	wires map[net.Conn]struct{}
	// epoch and asg are the placement state the node serves under,
	// resolved at startup: the WAL's epoch stack when one survives,
	// else the configured epoch-0 assignment.
	epoch placement.Epoch
	asg   *placement.Assignment

	ready atomic.Bool

	// reg is the node's metrics registry, seeded with the full catalog at
	// Start so the daemon's /metrics family set matches the in-process
	// backends'. obsPrepared/obsDecided are the protocol round latency
	// histograms (ticks = µs on this backend), resolved once.
	reg            *obs.Registry
	obsPrepared    *obs.Histogram
	obsDecided     *obs.Histogram
	obsShardCommit *obs.HistogramVec
	// rec records protocol-visible events for Options.TraceOut (nil when
	// tracing is off). Wire-level events arrive from the link's timer and
	// connection goroutines, state events from the loop goroutine, so
	// every append and read goes through recMu (via the trace method).
	recMu sync.Mutex
	rec   *trace.Recorder
}

// ClearWorkspace removes a site's workspace directory — its WAL and any
// per-node logs — for a cold start with no inherited state. A missing
// directory is not an error.
func ClearWorkspace(dir string) error {
	if dir == "" {
		return fmt.Errorf("netnode: empty workspace directory")
	}
	return os.RemoveAll(dir)
}

// NewNode builds a node; Start brings it up.
func NewNode(opts Options) *Node {
	if opts.T <= 0 {
		opts.T = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Node{opts: opts}
}

// Start opens the engine over its log, brings the transport and event
// loop up, and runs recovery: replay the surviving WAL, resolve in-doubt
// transactions with real MsgInquire traffic, and pull missed commits from
// a reachable peer's snapshot. The node reports ready only after
// recovery, so a harness waiting on /health observes a fully recovered
// site.
func (n *Node) Start() error {
	if n.opts.Protocol == nil {
		return fmt.Errorf("netnode: nil protocol")
	}
	if n.opts.ID == 0 {
		return fmt.Errorf("netnode: zero site ID")
	}
	if err := n.checkBlocked(n.opts.Blocked); err != nil {
		return err
	}
	n.reg = obs.New()
	obs.RegisterBase(n.reg)
	pname := n.opts.Protocol.Name()
	n.obsPrepared = n.reg.Histogram(obs.MRoundLatency,
		obs.L("protocol", pname), obs.L("phase", "prepared"))
	n.obsDecided = n.reg.Histogram(obs.MRoundLatency,
		obs.L("protocol", pname), obs.L("phase", "decided"))
	n.obsShardCommit = n.reg.NewHistogramVec(obs.MShardCommitLatency, "shard")
	if n.opts.TraceOut != "" {
		n.rec = &trace.Recorder{}
	}
	store := n.opts.Store
	if store == nil {
		if n.opts.WALPath == "" {
			return fmt.Errorf("netnode: need a Store or a WALPath")
		}
		fs, err := wal.OpenFile(n.opts.WALPath)
		if err != nil {
			return err
		}
		n.file = fs
		store = fs
	}
	// Group commit for the log file the node opened itself; an injected
	// Store keeps strictly synchronous appends, which its tests rely on.
	var eopts engine.Options
	if n.file != nil {
		eopts.WAL = wal.GroupCommitDefaults()
	}
	n.eng = engine.NewWith(fmt.Sprintf("site-%d", n.opts.ID), store, eopts)
	var shardOf func(key string) int
	if asg := n.opts.Placement; asg != nil {
		shardOf = asg.ShardOf
	}
	n.eng.SetMetrics(n.reg, shardOf)
	if asg := n.opts.Placement; asg != nil {
		// The hosts predicate must be in place before recovery: replay
		// and catch-up consult it to keep this site's state scoped to
		// the shards it replicates.
		self := n.opts.ID
		n.eng.SetPlacement(func(key string) bool { return asg.Hosts(self, key) })
	}

	n.loop = site.NewLoop(site.Options{
		ID: n.opts.ID, Protocol: n.opts.Protocol, T: n.opts.T,
		Participant: participant{n.eng, n}, Trace: n.protocolEvent, OnDecide: n.onDecide,
	})
	n.tr = newTransport(n.opts.ID, n.opts.T, n.opts.Seed, n.opts.Peers, n.loop.Deliver, n.opts.Logf)
	if n.rec != nil {
		n.tr.Trace = n.trace
	}
	n.tr.setMetrics(n.reg)
	n.tr.SetBlocked(n.opts.Blocked, time.Time{})
	addr, err := n.tr.listen(n.opts.Addr)
	if err != nil {
		return err
	}
	n.addr = addr
	n.loop.Start(n.tr)

	st, err := recovery.Run(n.recoveryConfig())
	n.mu.Lock()
	n.recStats, n.recErr = &st, err
	n.pending = st.Pending
	n.mu.Unlock()
	if err != nil {
		n.opts.Logf("recovery failed: %v", err)
	} else if st.Replayed+st.InDoubt+st.CaughtUpKeys > 0 {
		n.opts.Logf("recovered: %s", st)
	}
	n.installPlacement()
	n.ready.Store(true)
	return nil
}

// installPlacement resolves the node's placement state after recovery.
// The WAL is authoritative: an epoch stack recovered from the replayed
// log wins over the configured assignment (they agree under the static
// provisioning the net path supports, but the log is what a restarted
// node actually owns). A fresh boot with a configured assignment writes
// the epoch-0 directory record durably, so the next incarnation
// recovers it from the log alone.
func (n *Node) installPlacement() {
	snap, _ := n.eng.StableSnapshot()
	if stack, err := placement.StackFromSnapshot(snap); err != nil {
		n.opts.Logf("placement: corrupt epoch stack in WAL: %v", err)
	} else if len(stack) > 0 {
		cur := stack[len(stack)-1]
		n.mu.Lock()
		n.epoch, n.asg = placement.Epoch(len(stack)-1), cur
		n.mu.Unlock()
		n.opts.Logf("placement: epoch %d recovered from WAL (%d shards, rf=%d)",
			len(stack)-1, cur.Shards(), cur.ReplicationFactor())
		return
	}
	if asg := n.opts.Placement; asg != nil {
		n.eng.Put(placement.EpochKey(0), placement.EncodeAssignment(asg))
		n.mu.Lock()
		n.epoch, n.asg = 0, asg
		n.mu.Unlock()
		n.opts.Logf("placement: epoch 0 installed from configuration (%d shards, rf=%d)",
			asg.Shards(), asg.ReplicationFactor())
	}
}

// PlacementEpoch returns the placement epoch the node serves under and
// whether it has one (false for full replication).
func (n *Node) PlacementEpoch() (placement.Epoch, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.asg != nil
}

// Addr returns the bound protocol address.
func (n *Node) Addr() string { return n.addr }

// Engine returns the node's storage engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// Ready reports whether startup (including recovery) has finished.
func (n *Node) Ready() bool { return n.ready.Load() }

// recoveryConfig is this site's recovery.Plan over the configured peer
// roster and placement. Catch-up pulls snapshots through the peers' admin
// APIs, so a node that was given none skips it.
func (n *Node) recoveryConfig() recovery.Config {
	all := slices.Sorted(maps.Keys(n.opts.Peers))
	cfg := recovery.Plan(n.opts.ID, n.eng, netPeers{n: n}, all, n.opts.Placement)
	if len(n.opts.APIPeers) == 0 {
		cfg.CatchUp = nil
	}
	return cfg
}

// RetryInDoubt re-runs the inquiry round for transactions recovery left
// unresolved — the heal edge: the partition that hid every decided
// participant has lifted. Reports whether anything was still pending
// before the pass.
func (n *Node) RetryInDoubt() (recovery.Stats, bool) {
	n.mu.Lock()
	pend := n.pending
	n.mu.Unlock()
	if len(pend) == 0 {
		return recovery.Stats{}, false
	}
	st := recovery.Retry(n.recoveryConfig(), pend)
	n.mu.Lock()
	n.pending = st.Pending
	n.mu.Unlock()
	return st, true
}

// RecoveryResult returns the startup recovery outcome (nil stats before
// Start finishes).
func (n *Node) RecoveryResult() (*recovery.Stats, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recStats, n.recErr
}

// Submit starts a transaction with this site as master. The roster and
// scripted no-votes were resolved by the submitting client; slaves learn
// them from the MsgXact envelope.
func (n *Node) Submit(tid proto.TxnID, master proto.SiteID, sites []proto.SiteID,
	noVotes []proto.SiteID, payload []byte) error {
	if master != n.opts.ID {
		return fmt.Errorf("netnode: site %d asked to coordinate txn %d mastered at %d",
			n.opts.ID, tid, master)
	}
	if len(sites) < 2 {
		return fmt.Errorf("netnode: txn %d needs at least 2 participants, got %v", tid, sites)
	}
	n.loop.Submit(site.Spec{TID: tid, Master: master, Sites: sites, NoVotes: noVotes, Payload: payload})
	return nil
}

// SetBlocked replaces the partition blocklist from instant at on (the
// present when zero or past): site.Link.SetBlocked.
func (n *Node) SetBlocked(peers []proto.SiteID, at time.Time) { n.tr.SetBlocked(peers, at) }

// checkBlocked rejects a blocklist naming this site or a site outside its
// peers: a typo that would otherwise partition nothing, silently.
func (n *Node) checkBlocked(peers []proto.SiteID) error {
	for _, id := range peers {
		if _, ok := n.opts.Peers[id]; !ok || id == n.opts.ID {
			return fmt.Errorf("netnode: site %d cannot block %d, which is not one of its peers", n.opts.ID, id)
		}
	}
	return nil
}

// Counters returns the transport's cumulative message counters.
func (n *Node) Counters() (sent, delivered, bounced, dropped uint64) {
	return n.tr.Counters()
}

// txnInfo renders the loop's view of a transaction it hosts.
func txnInfo(st site.Status) TxnInfo {
	info := TxnInfo{
		TID: st.TID, Master: st.Master, Sites: st.Sites,
		Outcome: st.Outcome, Started: true, State: st.State,
	}
	if st.Outcome != proto.None {
		info.DecidedAt = time.UnixMicro(int64(st.DecidedAt))
	}
	return info
}

// Txn returns one transaction's bookkeeping. Transactions this process
// never hosted live (decided before a restart, or still in doubt from the
// log) are answered from durable state.
func (n *Node) Txn(tid proto.TxnID) TxnInfo {
	if st, ok := n.loop.Txn(tid); ok {
		return txnInfo(st)
	}
	info := TxnInfo{TID: tid, State: "q"}
	if o, ok := n.eng.Outcome(uint64(tid)); ok && o != proto.None {
		info.Outcome = o
		info.Started = true
	}
	for _, d := range n.eng.InDoubt() {
		if d == uint64(tid) {
			info.Started = true // prepared in the log: it participated
		}
	}
	return info
}

// Txns returns every live transaction's bookkeeping in TID order.
func (n *Node) Txns() []TxnInfo {
	sts := n.loop.Txns()
	out := make([]TxnInfo, len(sts))
	for i, st := range sts {
		out[i] = txnInfo(st)
	}
	return out
}

// Close stops the loop, the transport and every automaton timer, and
// closes the log file.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	api := n.api
	for conn := range n.wires {
		conn.Close() // its handler sees the read fail and untracks it
	}
	n.mu.Unlock()
	if api != nil {
		api.Close()
	}
	if n.tr != nil {
		n.tr.Close()
		n.loop.Close()
	}
	n.wg.Wait()
	if n.file != nil {
		n.file.Close()
	}
	if n.rec != nil && n.opts.TraceOut != "" {
		n.recMu.Lock()
		events := n.rec.Events()
		n.recMu.Unlock()
		if err := trace.WriteJSONLFile(n.opts.TraceOut, events); err != nil {
			n.opts.Logf("trace export failed: %v", err)
		} else {
			n.opts.Logf("trace: %d events -> %s", len(events), n.opts.TraceOut)
		}
	}
}

// protocolEvent is the site loop's trace sink. Free-form notes go to the
// node log; state transitions and decisions go to the -trace-out recorder,
// whose vocabulary is exactly those plus the link's wire events — timer
// actions stay out of the export.
func (n *Node) protocolEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.Note:
		n.opts.Logf("txn %d: %s", ev.TID, ev.Detail)
	case trace.Transition, trace.Decide:
		n.trace(ev)
	}
}

// participant is the engine as the site loop sees it: a site.stager. A
// payload-less transaction has no database ops and votes yes without
// touching the engine; every yes vote is observed where it becomes durable
// (a slave's right after its StageAt, a master's once its xacts are out) —
// the submit→voted edge of the phase="prepared" round histogram.
type participant struct {
	*engine.Engine
	n *Node
}

func (p participant) StageAt(tid proto.TxnID, payload []byte, sites []proto.SiteID) bool {
	return len(payload) == 0 || p.Engine.StageAt(tid, payload, sites)
}

func (p participant) Force(tid proto.TxnID) bool {
	vote := p.Engine.Force(tid) // true when nothing was staged
	if st, ok := p.n.loop.Txn(tid); ok && vote {
		p.n.obsPrepared.Observe(int64(p.n.loop.Now() - st.StartedAt))
	}
	return vote
}

// onDecide is the site loop's decision hook: it observes the transaction's
// latency at this site — since the site first learned of it, in µs — into
// the phase="decided" round histogram and, for commits, the histogram of
// the shard its body is attributed to.
func (n *Node) onDecide(cfg proto.Config, o proto.Outcome, at sim.Time) {
	st, ok := n.loop.Txn(cfg.TID)
	if !ok {
		return
	}
	lat := int64(at - st.StartedAt)
	n.obsDecided.Observe(lat)
	if o == proto.Commit {
		n.obsShardCommit.At(payloadShard(n.opts.Placement, cfg.Payload)).Observe(lat)
	}
}

// trace appends one event to the recorder under recMu; a no-op when
// tracing is off. Safe from any goroutine — the transport emits wire
// events from its timer and connection goroutines.
func (n *Node) trace(ev trace.Event) {
	if n.rec == nil {
		return
	}
	n.recMu.Lock()
	n.rec.Append(ev)
	n.recMu.Unlock()
}

// payloadShard attributes a transaction body to its first data shard — the
// cluster layer's rule; 0 under full replication or for a body with no
// data shards.
func payloadShard(asg *placement.Assignment, payload []byte) int {
	if shards := asg.DataShards(payload); len(shards) > 0 {
		return shards[0]
	}
	return 0
}

// MetricsSnapshot returns a point-in-time snapshot of the node's
// registry — the payload of GET /metricsjson, and what the net backend
// merges into the cluster-level view.
func (n *Node) MetricsSnapshot() obs.Snapshot {
	if n.reg == nil {
		return obs.Snapshot{}
	}
	return n.reg.Snapshot()
}

// TraceEvents returns the recorded trace (nil when tracing is off).
// Stable only after Close.
func (n *Node) TraceEvents() []trace.Event {
	if n.rec == nil {
		return nil
	}
	n.recMu.Lock()
	defer n.recMu.Unlock()
	return n.rec.Events()
}

// netPeers is the node's recovery.PeerClient: outcome inquiries are real
// MsgInquire frames over the link (bounced by its blocklist, lost to dead
// peers), snapshot pulls go through the peer's admin API, gated by the
// blocklist in force.
type netPeers struct{ n *Node }

// Outcome implements recovery.PeerClient.
func (p netPeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	return p.n.loop.Inquire(peer, proto.TxnID(tid))
}

// Snapshot implements recovery.PeerClient over the peer's admin API.
func (p netPeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	n := p.n
	if slices.Contains(n.tr.BlockedList(), peer) {
		return nil, nil, false
	}
	addr := n.opts.APIPeers[peer]
	if addr == "" {
		return nil, nil, false
	}
	snap, unstable, err := NewClient(addr).Snapshot()
	if err != nil {
		return nil, nil, false
	}
	return snap, unstable, true
}
