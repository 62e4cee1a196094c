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
	"termproto/internal/sim"
	"termproto/internal/site"
	"termproto/internal/trace"
)

// WALFile is the name of a daemon's write-ahead log in its workspace.
const WALFile = "wal.log"

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
	// TraceOut, when set, is a JSONL trace file the node appends each
	// protocol-visible event to as it happens — state transitions,
	// decisions and the link's wire events — one line, one write
	// (trace.OpenJSONL): a SIGKILLed incarnation leaves all it traced, and
	// a restarted one appends. Relative paths are the caller's working
	// directory — cmd/termnode resolves them under the node's workspace.
	TraceOut string
	// Logf receives diagnostic lines; nil discards them.
	Logf func(format string, args ...any)
}

// Node is one site of the termination protocol as a network process: a
// site.Node stepped by a site.Loop over a TCP transport, plus what is the
// daemon's own — the WAL file, the admin API, the trace file.
// cmd/termnode wraps it in a daemon; tests can run several in one process
// over real sockets.
type Node struct {
	opts Options
	eng  *engine.Engine
	site *site.Node
	loop *site.Loop
	tr   *transport
	file *wal.FileStore // non-nil when we opened WALPath ourselves
	addr string
	wg   sync.WaitGroup

	mu       sync.Mutex
	recovery site.Stats // the startup recovery's report; Ran is false until it ends
	api      *http.Server
	closed   bool
	// traceOut is the Options.TraceOut file (nil when off or closed) and
	// traceLine the line being written to it, under mu: events arrive from
	// the loop, link-timer and connection goroutines.
	traceOut  *os.File
	traceLine []byte
	// wires are the connections handleWire hijacked from the API server,
	// which no longer closes them; their handlers are counted in wg.
	wires map[net.Conn]struct{}

	ready atomic.Bool

	// reg is the node's metrics registry, seeded with the full catalog at
	// Start so the daemon's /metrics family set matches the simulator's.
	reg *obs.Registry
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

// Start opens the engine over its log, assembles the site over it, brings
// the transport and event loop up, and runs recovery as the loop's first
// event: replay the surviving WAL, resolve in-doubt transactions with
// MsgInquire frames, and pull missed commits with MsgSnapshot frames. Until
// then the node refuses its peers' snapshot requests, so peers booted with
// it end their catch-up in one round trip, not after 2T. The node reports
// ready only after recovery and the placement install, so a harness
// waiting on /health observes a fully recovered site.
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
	if n.opts.TraceOut != "" {
		f, err := trace.OpenJSONL(n.opts.TraceOut)
		if err != nil {
			return err
		}
		n.traceOut = f
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
	n.eng = engine.New(fmt.Sprintf("site-%d", n.opts.ID), store)
	var dir *placement.Directory
	if n.opts.Placement != nil {
		dir = placement.NewDirectory(n.opts.Placement)
	}
	n.loop = site.NewLoop(site.Options{ID: n.opts.ID, T: n.opts.T})
	s := n.loop.Site()
	s.Engine, s.Trace = n.eng, n.protocolEvent
	n.site = site.NewNode(s, n.opts.Protocol, slices.Sorted(maps.Keys(n.opts.Peers)), dir, n.reg)
	n.tr = newTransport(n.opts.ID, n.opts.T, n.opts.Seed, n.opts.Peers, n.loop.Deliver, n.opts.Logf)
	if n.traceOut != nil {
		n.tr.Trace = n.trace
	}
	n.tr.setMetrics(n.reg)
	n.tr.SetBlocked(n.opts.Blocked, time.Time{})
	// Queued before the listener opens, recovery is the loop's first event:
	// no peer's frame reaches the site before its replay.
	recovered := make(chan struct{})
	n.loop.Do(func() {
		n.site.Recover(func(st site.Stats) {
			n.mu.Lock()
			n.recovery = st
			n.mu.Unlock()
			close(recovered)
		})
	})
	addr, err := n.tr.listen(n.opts.Addr)
	if err != nil {
		return err
	}
	n.addr = addr
	n.loop.Start(n.site, n.tr)
	<-recovered
	if st := n.RecoveryResult(); st.Err != "" {
		n.opts.Logf("%s", st.Err)
	} else if st.Replayed+st.InDoubt+st.CaughtUpKeys > 0 {
		n.opts.Logf("recovered: %s", st)
	}
	if asg := n.opts.Placement; asg != nil {
		how := "recovered from WAL"
		if n.site.InstallPlacement() > 0 {
			how = "installed from configuration"
		}
		n.opts.Logf("placement: epoch 0 %s (%d shards, rf=%d)", how, asg.Shards(), asg.ReplicationFactor())
	}
	n.ready.Store(true)
	return nil
}

// Addr returns the bound protocol address.
func (n *Node) Addr() string { return n.addr }

// Engine returns the node's storage engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// Ready reports whether startup (including recovery) has finished.
func (n *Node) Ready() bool { return n.ready.Load() }

// RecoveryResult returns the startup recovery's report (Ran is false
// before it ends): GET /recovery.
func (n *Node) RecoveryResult() site.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recovery
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
// present when zero or past): site.Link.SetBlocked. A list that lifts a
// block in force has the site ask again, from that instant on its loop,
// about what its recovery left in doubt (site.Node.RetryInDoubt).
func (n *Node) SetBlocked(peers []proto.SiteID, at time.Time) {
	lifts := slices.ContainsFunc(n.tr.BlockedList(), func(id proto.SiteID) bool { return !slices.Contains(peers, id) })
	n.tr.SetBlocked(peers, at)
	if lifts {
		n.loop.AfterFunc(sim.Duration(max(time.Until(at), 0)/time.Microsecond), n.site.RetryInDoubt)
	}
}

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

// Txn returns the site's view of one transaction; started is false when
// the site never took part in it. Transactions this process never hosted
// live (decided before a restart, or still in doubt from the log) are
// answered from durable state.
func (n *Node) Txn(tid proto.TxnID) (st site.Status, started bool) { return n.site.Txn(tid) }

// Close stops the loop, the transport and every automaton timer, and
// closes the log and trace files.
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
	n.mu.Lock()
	if n.traceOut != nil {
		if err := n.traceOut.Close(); err != nil {
			n.opts.Logf("trace: %v", err)
		}
		n.traceOut = nil
	}
	n.mu.Unlock()
}

// protocolEvent is the site loop's trace sink. Free-form notes go to the
// node log; state transitions and decisions go to the -trace-out file,
// whose vocabulary is exactly those plus the link's wire events — timer
// actions stay out of it.
func (n *Node) protocolEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.Note:
		n.opts.Logf("txn %d: %s", ev.TID, ev.Detail)
	case trace.Transition, trace.Decide:
		n.trace(ev)
	}
}

// trace writes one event's line to the trace file under mu: one write, no
// buffer, so the file holds every event traced before a SIGKILL. A no-op
// when tracing is off or the node closed. Safe from any goroutine — the
// transport emits wire events from its timer and connection goroutines.
func (n *Node) trace(ev trace.Event) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.traceOut == nil {
		return
	}
	n.traceLine = trace.AppendJSONL(n.traceLine[:0], ev)
	if _, err := n.traceOut.Write(n.traceLine); err != nil {
		n.opts.Logf("trace: %v", err)
	}
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
