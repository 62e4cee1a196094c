package cluster

import (
	"fmt"
	"os"
	"sync"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/netnode/harness"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// NetOptions tunes the multi-process backend.
type NetOptions struct {
	// T is the wall-clock value of the longest end-to-end delay bound;
	// defaults to 100ms — process spawn and HTTP round trips must stay
	// small relative to protocol timing. Schedule and Txn times in ticks
	// map onto wall time as sim.DefaultT ticks = T.
	T time.Duration
	// WaitTimeout bounds each Wait call; defaults to 300*T.
	WaitTimeout time.Duration
	// ProtoName is the registry name every termnode daemon is launched
	// with; it must agree with Config.Protocol. Empty means the registry
	// default. The name, not the Protocol value, crosses the process
	// boundary.
	ProtoName string
	// Workdir is the localnet root (one subdirectory per node with its WAL
	// and log). Empty creates a temporary directory. The directory is left
	// behind on Close so logs survive for postmortems and CI artifacts.
	Workdir string
	// BinPath is a prebuilt termnode binary; empty builds one.
	BinPath string
	// Seed offsets every node's link-delay seed.
	Seed int64
	// ExtraArgs is appended to every termnode's command line — the
	// daemon's throughput knobs (-group-commit=false, -short-commit) for
	// runs that need a non-default configuration.
	ExtraArgs []string
}

// NetBackend runs transactions on a localnet of real termnode processes:
// every site is its own OS process speaking the wire protocol over TCP,
// every WAL is a real file, a crash is a SIGKILL and a recovery is a
// fresh process over the surviving workspace. It is the third rung of
// the fidelity ladder — sim (deterministic), live (goroutines), net
// (processes) — and the same Cluster API drives all three.
//
// Unsupported with this backend: Participants (the engines live in the
// daemon processes; inspect them through the admin API) and membership
// events. A Directory is supported in its static form — the epoch-0
// assignment ships to every daemon, which hosts and recovers only its
// own shards — but epoch bumps (join/leave/move) are not; the directory
// must still be at epoch 0. Durable recovery is always on — a
// restarted daemon replays its WAL, resolves in-doubt transactions with
// real MsgInquire traffic and pulls missed commits before turning
// healthy — so Config.Recovery is implied.
type NetBackend struct {
	opts NetOptions
	cfg  Config
	net  *harness.Localnet
	dir  string

	startedAt time.Time

	mu         sync.Mutex
	handles    map[proto.TxnID]*TxnResult
	submitWall map[proto.TxnID]time.Time
	partGen    int
	recoveries []RecoveryReport
	dead       map[proto.SiteID]bool // killed and not yet restarted
	finalStats NetStats              // counters frozen at Close
	subWG      sync.WaitGroup
	recWG      sync.WaitGroup
	closed     bool
}

// NewNetBackend returns a multi-process backend.
func NewNetBackend(opts NetOptions) *NetBackend {
	if opts.T <= 0 {
		opts.T = 100 * time.Millisecond
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 300 * opts.T
	}
	return &NetBackend{
		opts:       opts,
		handles:    make(map[proto.TxnID]*TxnResult),
		submitWall: make(map[proto.TxnID]time.Time),
		dead:       make(map[proto.SiteID]bool),
	}
}

// Name implements Backend.
func (b *NetBackend) Name() string { return "net" }

// Workdir returns the localnet root holding every node's WAL and log.
func (b *NetBackend) Workdir() string { return b.dir }

// wall converts timeline ticks to wall time (sim.DefaultT ticks = T).
func (b *NetBackend) wall(t sim.Time) time.Duration {
	return time.Duration(t) * b.opts.T / time.Duration(sim.DefaultT)
}

// Open implements Backend: it boots one termnode process per site and
// waits for the whole localnet to report healthy.
func (b *NetBackend) Open(cfg Config) error {
	if b.net != nil {
		return fmt.Errorf("net backend: already open")
	}
	// Sharded placement over processes is static: the directory's epoch-0
	// assignment ships to every daemon via -placement, and membership
	// changes (epoch bumps) are rejected — rebalancing real processes is
	// future work.
	var placementBytes []byte
	if d := cfg.Directory; d != nil {
		if e := d.Epoch(); e != 0 {
			return fmt.Errorf("net backend: sharded placement over processes is static; directory must be at epoch 0, got %d", e)
		}
		_, asg := d.Current()
		if asg.ReplicationFactor() < 2 {
			return fmt.Errorf("net backend: sharded placement over processes needs rf >= 2 (single-replica shards have no protocol round)")
		}
		placementBytes = placement.EncodeAssignment(asg)
	}
	if len(cfg.Participants) > 0 {
		return fmt.Errorf("net backend: participants live in the daemon processes; inspect them through the admin API")
	}
	for _, ev := range cfg.Schedule {
		switch ev.Kind {
		case EvJoin, EvLeave, EvMove:
			return fmt.Errorf("net backend: membership events are not supported over processes yet")
		}
	}
	b.cfg = cfg
	dir := b.opts.Workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "termnet-"); err != nil {
			return err
		}
	}
	net, err := harness.Start(harness.Options{
		N: cfg.Sites, ProtoName: b.opts.ProtoName, T: b.opts.T,
		Dir: dir, BinPath: b.opts.BinPath, Seed: b.opts.Seed,
		ExtraArgs: b.opts.ExtraArgs,
		Placement: placementBytes,
	})
	if err != nil {
		return err
	}
	b.net = net
	b.dir = dir
	b.startedAt = time.Now()
	for _, ev := range b.cfg.Schedule.Sorted() {
		b.scheduleEvent(ev)
	}
	return nil
}

func (b *NetBackend) scheduleEvent(ev Event) {
	done := b.trackRecovery(ev)
	time.AfterFunc(b.wall(ev.At), func() { b.apply(ev); done() })
}

// trackRecovery registers the scheduled events Wait must not outrun:
// every EvRecover (termnode recovery is always durable) and every EvHeal
// (its resolve pass can settle stranded in-doubt transactions).
func (b *NetBackend) trackRecovery(ev Event) func() {
	switch ev.Kind {
	case EvRecover, EvHeal:
	default:
		return func() {}
	}
	b.recWG.Add(1)
	var once sync.Once
	return func() { once.Do(b.recWG.Done) }
}

func (b *NetBackend) apply(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	switch ev.Kind {
	case EvPartition:
		b.partGen++
		gen := b.partGen
		b.mu.Unlock()
		b.net.Partition(ev.G2...) //nolint:errcheck // dead nodes have no links
		if ev.Heal > ev.At {
			time.AfterFunc(b.wall(ev.Heal-ev.At), func() {
				b.mu.Lock()
				stale := b.closed || gen != b.partGen
				b.mu.Unlock()
				if !stale {
					b.net.Heal() //nolint:errcheck // best-effort
				}
			})
		}
	case EvHeal:
		b.partGen++
		b.mu.Unlock()
		b.net.Heal() //nolint:errcheck // best-effort
	case EvCrash:
		b.dead[ev.Site] = true
		b.mu.Unlock()
		b.net.Kill(ev.Site) //nolint:errcheck // already dead is fine
	case EvRecover:
		if !b.dead[ev.Site] {
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.recoverSite(ev.Site, ev.At)
	default:
		b.mu.Unlock()
	}
}

// recoverSite restarts a killed site's process over its surviving
// workspace and records the recovery the daemon reports: log replay,
// in-doubt resolution via real MsgInquire traffic over TCP, snapshot
// catch-up over the admin API.
func (b *NetBackend) recoverSite(site proto.SiteID, at sim.Time) {
	start := time.Now()
	if err := b.net.Restart(site); err != nil {
		return
	}
	client := b.net.Client(site)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if h, err := client.Health(); err == nil && h.Ready {
			break
		}
		if time.Now().After(deadline) {
			return // the report below would lie; leave the site marked dead
		}
		time.Sleep(b.opts.T / 4)
	}
	rep := RecoveryReport{Site: site, At: at, Wall: time.Since(start)}
	if dto, err := client.Recovery(); err == nil {
		rep.Stats = recovery.Stats{
			Replayed: dto.Replayed, InDoubt: dto.InDoubt,
			ResolvedCommit: dto.ResolvedCommit, ResolvedAbort: dto.ResolvedAbort,
			Unresolved: dto.Unresolved, CaughtUpKeys: dto.CaughtUpKeys,
		}
		if dto.Err != "" {
			rep.Err = fmt.Errorf("%s", dto.Err)
		}
	}
	b.mu.Lock()
	delete(b.dead, site)
	b.recoveries = append(b.recoveries, rep)
	b.mu.Unlock()
}

// Submit implements Backend. Voters are evaluated here, on the client
// side — a Go closure cannot cross a process boundary — and the verdicts
// ride the submission as a scripted no-vote site list.
func (b *NetBackend) Submit(t Txn, res *TxnResult) error {
	if b.net == nil {
		return fmt.Errorf("net backend: not open")
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("net backend: closed")
	}
	b.handles[t.ID] = res
	b.mu.Unlock()

	req := netnode.SubmitReq{
		TID: uint64(t.ID), Master: int(t.Master), Payload: t.Payload,
	}
	for _, id := range t.Sites {
		req.Sites = append(req.Sites, int(id))
	}
	voter := t.Votes
	if voter == nil {
		voter = b.cfg.Votes
	}
	if voter != nil {
		for _, id := range t.Sites {
			if !voter(id, t.ID, t.Payload) {
				req.NoVotes = append(req.NoVotes, int(id))
			}
		}
	}

	fire := func() {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		b.submitWall[t.ID] = time.Now()
		deadMaster := b.dead[t.Master]
		b.mu.Unlock()
		if deadMaster {
			// A submission to a crashed coordinator is a recorded no-op:
			// nothing starts anywhere, mirroring the other backends.
			res.Sites[t.Master].Crashed = true
			return
		}
		if err := b.net.Client(t.Master).Submit(req); err != nil {
			res.Sites[t.Master].Crashed = true // died between check and call
		}
	}
	delay := b.wall(t.At) - time.Since(b.startedAt)
	if delay <= 0 {
		fire()
		return nil
	}
	b.subWG.Add(1)
	time.AfterFunc(delay, func() {
		defer b.subWG.Done()
		fire()
	})
	return nil
}

// Wait implements Backend: it waits (bounded by WaitTimeout) for every
// submitted transaction to settle at every live participating site —
// decided where the site started, or past the delivery grace where it
// never learned of the transaction — then syncs all results.
func (b *NetBackend) Wait() error {
	if b.net == nil {
		return fmt.Errorf("net backend: not open")
	}
	b.subWG.Wait()
	b.recWG.Wait()
	deadline := time.Now().Add(b.opts.WaitTimeout)
	for {
		if b.settled() || time.Now().After(deadline) {
			break
		}
		time.Sleep(b.opts.T / 2)
	}
	b.sync()
	return nil
}

// settled reports whether every transaction has terminated at every live
// participant. A site that started must have decided; a site that never
// started is given a 10T delivery grace after submission (a delayed
// MsgXact plus the whole protocol fits well inside it) before silence is
// taken as final.
func (b *NetBackend) settled() bool {
	b.mu.Lock()
	handles := make(map[proto.TxnID]*TxnResult, len(b.handles))
	for tid, h := range b.handles {
		handles[tid] = h
	}
	submitted := make(map[proto.TxnID]time.Time, len(b.submitWall))
	for tid, at := range b.submitWall {
		submitted[tid] = at
	}
	dead := make(map[proto.SiteID]bool, len(b.dead))
	for id := range b.dead {
		dead[id] = true
	}
	b.mu.Unlock()

	for tid, res := range handles {
		at, fired := submitted[tid]
		if !fired {
			return false // the delayed submission has not reached its node yet
		}
		for id := range res.Sites {
			if dead[id] {
				continue
			}
			dto, err := b.net.Client(id).Txn(tid)
			if err != nil {
				return false // transient API failure: poll again
			}
			if dto.Started && dto.Outcome == "none" {
				return false
			}
			if !dto.Started && time.Since(at) < 10*b.opts.T {
				return false
			}
		}
	}
	return true
}

// sync copies every node's transaction bookkeeping into the result
// handles. Sites currently dead are marked crashed; their durable view
// rejoins the results if a later recovery brings them back before the
// next Wait.
func (b *NetBackend) sync() {
	b.mu.Lock()
	handles := make(map[proto.TxnID]*TxnResult, len(b.handles))
	for tid, h := range b.handles {
		handles[tid] = h
	}
	dead := make(map[proto.SiteID]bool, len(b.dead))
	for id := range b.dead {
		dead[id] = true
	}
	b.mu.Unlock()

	for tid, res := range handles {
		for id, so := range res.Sites {
			if dead[id] {
				so.Crashed = true
				continue
			}
			dto, err := b.net.Client(id).Txn(tid)
			if err != nil {
				continue
			}
			so.Started = dto.Started
			if dto.State != "" {
				so.FinalState = dto.State
			}
			switch dto.Outcome {
			case "commit":
				so.Outcome = proto.Commit
			case "abort":
				so.Outcome = proto.Abort
			}
			if dto.DecidedAtMicro != 0 {
				wall := time.UnixMicro(dto.DecidedAtMicro).Sub(b.startedAt)
				so.DecidedAt = sim.Time(wall * time.Duration(sim.DefaultT) / b.opts.T)
			}
		}
	}
}

// Inject implements Backend.
func (b *NetBackend) Inject(ev Event) error {
	if b.net == nil {
		return fmt.Errorf("net backend: not open")
	}
	switch ev.Kind {
	case EvJoin, EvLeave, EvMove:
		return fmt.Errorf("net backend: membership events are not supported over processes yet")
	}
	done := b.trackRecovery(ev)
	delay := b.wall(ev.At) - time.Since(b.startedAt)
	if delay <= 0 {
		b.apply(ev)
		done()
		return nil
	}
	time.AfterFunc(delay, func() { b.apply(ev); done() })
	return nil
}

// Now implements Backend: wall time since the localnet turned healthy,
// in ticks.
func (b *NetBackend) Now() sim.Time {
	if b.net == nil {
		return 0
	}
	return sim.Time(time.Since(b.startedAt) * time.Duration(sim.DefaultT) / b.opts.T)
}

// NetStats implements Backend: counters summed over the live nodes (a
// killed process takes its counters with it). After Close it returns the
// counters as they stood when the daemons went down.
func (b *NetBackend) NetStats() NetStats {
	var st NetStats
	if b.net == nil {
		return st
	}
	b.mu.Lock()
	if b.closed {
		st = b.finalStats
		b.mu.Unlock()
		return st
	}
	b.mu.Unlock()
	for _, id := range b.net.Sites() {
		if !b.net.Alive(id) {
			continue
		}
		dto, err := b.net.Client(id).Stats()
		if err != nil {
			continue
		}
		st.MsgsSent += dto.Sent
		st.MsgsDelivered += dto.Delivered
		st.MsgsBounced += dto.Bounced
		st.MsgsDropped += dto.Dropped
	}
	return st
}

// Recoveries implements Backend.
func (b *NetBackend) Recoveries() []RecoveryReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]RecoveryReport(nil), b.recoveries...)
}

// RecoveryCount implements Backend.
func (b *NetBackend) RecoveryCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recoveries)
}

// Peers implements Backend: outcomes and snapshots read through the
// admin API. Reachability is the network's own — a dead peer refuses the
// connection.
func (b *NetBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return netBackendPeers{backend: b}
}

type netBackendPeers struct {
	backend *NetBackend
}

// Outcome implements recovery.PeerClient.
func (p netBackendPeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	dto, err := p.backend.net.Client(peer).Txn(proto.TxnID(tid))
	if err != nil {
		return proto.None, false
	}
	switch dto.Outcome {
	case "commit":
		return proto.Commit, true
	case "abort":
		return proto.Abort, true
	}
	return proto.None, false
}

// Snapshot implements recovery.PeerClient.
func (p netBackendPeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	snap, unstable, err := p.backend.net.Client(peer).Snapshot()
	if err != nil {
		return nil, nil, false
	}
	return snap, unstable, true
}

// MetricsSnapshots implements the cluster's metricsProvider hook:
// every live daemon's registry snapshot, read through GET /metricsjson.
// Cluster.Metrics merges them into its own registry's snapshot, so the
// per-shard engine counters and wire counters recorded inside the
// processes survive the process boundary. A dead daemon's metrics die
// with it, like its NetStats counters.
func (b *NetBackend) MetricsSnapshots() []obs.Snapshot {
	if b.net == nil {
		return nil
	}
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil
	}
	var out []obs.Snapshot
	for _, id := range b.net.Sites() {
		if !b.net.Alive(id) {
			continue
		}
		if snap, err := b.net.Client(id).Metrics(); err == nil {
			out = append(out, snap)
		}
	}
	return out
}

// Snapshots reads every live node's committed state through the admin
// API — the net-backend counterpart of inspecting Participants directly.
func (b *NetBackend) Snapshots() map[proto.SiteID]map[string][]byte {
	out := make(map[proto.SiteID]map[string][]byte)
	if b.net == nil {
		return out
	}
	for _, id := range b.net.Sites() {
		if !b.net.Alive(id) {
			continue
		}
		if snap, _, err := b.net.Client(id).Snapshot(); err == nil {
			out[id] = snap
		}
	}
	return out
}

// Close implements Backend: syncs final results and kills every daemon.
// Workspace directories (WALs, per-node logs) are left on disk.
func (b *NetBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	var final NetStats
	if b.net != nil {
		b.sync()
		final = b.NetStats()
	}
	b.mu.Lock()
	b.closed = true
	b.finalStats = final
	b.mu.Unlock()
	if b.net != nil {
		// Graceful: SIGTERM lets each daemon flush its WAL and export
		// its -trace-out file; stragglers are killed after the grace.
		b.net.Shutdown(10 * time.Second)
	}
	return nil
}

var _ Backend = (*NetBackend)(nil)
