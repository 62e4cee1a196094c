package cluster

import (
	"errors"
	"fmt"
	"os"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/netnode/harness"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// NetOptions tunes the multi-process backend.
type NetOptions struct {
	// T is the wall-clock value of the longest end-to-end delay bound;
	// defaults to 100ms — process spawn and the round trips on the wire
	// connection must stay small relative to protocol timing. Schedule and
	// Txn times in ticks map onto wall time as sim.DefaultT ticks = T.
	T time.Duration
	// Workdir is the localnet root (one subdirectory per node with its WAL
	// and log). Empty creates a temporary directory. The directory is left
	// behind on Close so logs survive for postmortems and CI artifacts.
	Workdir string
	// Seed offsets every node's link-delay seed.
	Seed int64
	// ExtraArgs is appended to every termnode's command line, e.g. the
	// daemons' -trace-out.
	ExtraArgs []string
}

// NetBackend runs transactions on a localnet of real termnode processes:
// every site is its own OS process speaking the wire protocol over TCP,
// every WAL is a real file, a crash is a SIGKILL and a recovery is a
// fresh process over the surviving workspace. It is the second rung of
// the fidelity ladder — sim (deterministic), net (processes) — and the
// same Cluster API drives both.
//
// Unsupported with this backend: Participants (the engines live in the
// daemon processes; inspect them through the admin API) and membership
// events. A Directory is supported in its static form — the epoch-0
// assignment ships to every daemon, which hosts and recovers only its
// own shards — but epoch bumps (join/leave/move) are not; the directory
// must still be at epoch 0. Durable recovery is always on — a
// restarted daemon replays its WAL, resolves in-doubt transactions with
// MsgInquire frames and pulls missed commits with MsgSnapshot frames
// before turning healthy. The daemons are launched with
// Config.Protocol's name: the name, not the Protocol value, crosses the
// process boundary, and every registry name is its protocol's Name().
type NetBackend struct {
	wallDriver
	opts NetOptions
	net  *harness.Localnet
	dir  string
}

// NewNetBackend returns a multi-process backend.
func NewNetBackend(opts NetOptions) *NetBackend {
	if opts.T <= 0 {
		opts.T = 100 * time.Millisecond
	}
	b := &NetBackend{opts: opts}
	b.wallDriver = newWallDriver("net", opts.T, b)
	return b
}

// Workdir returns the localnet root holding every node's WAL and log.
func (b *NetBackend) Workdir() string { return b.dir }

// errNoMembership rejects membership events: Config.migrate copies shard
// contents between in-process Participants, and daemons have no copy path
// over the admin API.
func errNoMembership(evs ...Event) error {
	for _, ev := range evs {
		if ev.Kind == EvJoin || ev.Kind == EvLeave || ev.Kind == EvMove {
			return errors.New("net backend: membership events are not supported over processes yet")
		}
	}
	return nil
}

// Inject implements Backend.
func (b *NetBackend) Inject(ev Event) error {
	if err := errNoMembership(ev); err != nil {
		return err
	}
	return b.wallDriver.Inject(ev)
}

// boot implements wallSites: it validates the configuration, boots one
// termnode process per site and waits for the whole localnet to report
// healthy.
func (b *NetBackend) boot(cfg Config) error {
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
	if err := errNoMembership(cfg.Schedule...); err != nil {
		return err
	}
	dir := b.opts.Workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "termnet-"); err != nil {
			return err
		}
	}
	net, err := harness.Start(harness.Options{
		N: cfg.Sites, ProtoName: cfg.Protocol.Name(), T: b.opts.T,
		Dir: dir, Seed: b.opts.Seed,
		ExtraArgs: b.opts.ExtraArgs,
		Placement: placementBytes,
	})
	if err != nil {
		return err
	}
	b.net, b.dir = net, dir
	return nil
}

// partition implements wallSites: every daemon's link blocklist, in force
// from one shared instant. The daemons' heal-edge retries go unreported.
func (b *NetBackend) partition(g2 []proto.SiteID) []RecoveryReport {
	if len(g2) > 0 {
		b.net.Partition(g2...) //nolint:errcheck // dead nodes have no links
	} else {
		b.net.Heal() //nolint:errcheck // best-effort
	}
	return nil
}

// crash implements wallSites: SIGKILL.
func (b *NetBackend) crash(id proto.SiteID) []site.Status {
	b.net.Kill(id) //nolint:errcheck // already dead is fine
	return nil
}

// restart implements wallSites: it restarts a killed site's process over
// its surviving workspace and returns the recovery the daemon reports: log
// replay, in-doubt resolution by MsgInquire frames and catch-up by
// MsgSnapshot frames over TCP.
func (b *NetBackend) restart(id proto.SiteID, at sim.Time) (*RecoveryReport, bool) {
	rep := &RecoveryReport{Site: id, At: at}
	if rep.Err = b.net.Restart(id); rep.Err != nil {
		return rep, false // the site stays down
	}
	if dto, err := b.net.Client(id).Recovery(); err == nil {
		rep.Stats = recovery.Stats{
			Replayed: dto.Replayed, InDoubt: dto.InDoubt,
			ResolvedCommit: dto.ResolvedCommit, ResolvedAbort: dto.ResolvedAbort,
			Unresolved: dto.Unresolved, CaughtUpKeys: dto.CaughtUpKeys,
		}
		if dto.Err != "" {
			rep.Err = errors.New(dto.Err)
		}
	}
	return rep, true
}

// submit implements wallSites.
func (b *NetBackend) submit(spec site.Spec) error {
	req := netnode.SubmitReq{TID: uint64(spec.TID), Master: int(spec.Master), Payload: spec.Payload}
	for _, id := range spec.Sites {
		req.Sites = append(req.Sites, int(id))
	}
	for _, id := range spec.NoVotes {
		req.NoVotes = append(req.NoVotes, int(id))
	}
	return b.net.Client(spec.Master).Submit(req)
}

// status implements wallSites; after a restart it is what the log says.
func (b *NetBackend) status(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
	dto, err := b.net.Client(id).Txn(tid)
	return site.Status{
		TID: tid, State: dto.State, Outcome: parseOutcome(dto.Outcome),
		DecidedAt: sim.Time(dto.DecidedAtMicro),
	}, dto.Started, err
}

// parseOutcome reads an outcome as the admin API spells it.
func parseOutcome(s string) proto.Outcome {
	switch s {
	case "commit":
		return proto.Commit
	case "abort":
		return proto.Abort
	}
	return proto.None
}

// eachAlive calls fn with every running daemon's client — none before Open
// or after Close. A killed process takes its counters and metrics with it.
func (b *NetBackend) eachAlive(fn func(id proto.SiteID, c *netnode.Client)) {
	if b.net == nil {
		return
	}
	for _, id := range b.net.Sites() {
		if b.net.Alive(id) {
			fn(id, b.net.Client(id))
		}
	}
}

// stats implements wallSites.
func (b *NetBackend) stats() NetStats {
	var st NetStats
	b.eachAlive(func(_ proto.SiteID, c *netnode.Client) {
		if dto, err := c.Stats(); err == nil {
			st.add(dto.Sent, dto.Delivered, dto.Bounced, dto.Dropped)
		}
	})
	return st
}

// MetricsSnapshots implements Backend: every live daemon's registry
// snapshot, read through GET /metricsjson, so what the processes recorded
// survives the process boundary. A killed process takes its metrics with
// it.
func (b *NetBackend) MetricsSnapshots() []obs.Snapshot {
	var out []obs.Snapshot
	b.eachAlive(func(_ proto.SiteID, c *netnode.Client) {
		if snap, err := c.Metrics(); err == nil {
			out = append(out, snap)
		}
	})
	return out
}

// Snapshots reads every live node's committed state through the admin
// API — the net-backend counterpart of inspecting Participants directly.
func (b *NetBackend) Snapshots() map[proto.SiteID]map[string][]byte {
	out := make(map[proto.SiteID]map[string][]byte)
	b.eachAlive(func(id proto.SiteID, c *netnode.Client) {
		if snap, _, err := c.Snapshot(); err == nil {
			out[id] = snap
		}
	})
	return out
}

// close implements wallSites. Workspace directories (WALs, per-node logs)
// are left on disk.
func (b *NetBackend) close() {
	// Graceful: SIGTERM lets each daemon flush its WAL and export its
	// -trace-out file; stragglers are killed after the grace.
	b.net.Shutdown(10 * time.Second)
}

var (
	_ Backend   = (*NetBackend)(nil)
	_ wallSites = (*NetBackend)(nil)
)
