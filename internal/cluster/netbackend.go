package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"termproto/internal/check"
	"termproto/internal/netnode"
	"termproto/internal/netnode/harness"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/sim"
	"termproto/internal/site"
	"termproto/internal/trace"
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
}

// NetBackend runs transactions on a localnet of real termnode processes:
// every site is its own OS process speaking the wire protocol over TCP,
// every WAL is a real file, a crash is a SIGKILL and a recovery is a
// fresh process over the surviving workspace. It is the second rung of
// the fidelity ladder — sim (deterministic), net (processes) — and the
// same Cluster API drives both.
//
// Every daemon streams its trace to its workspace (-trace-out), so a
// killed incarnation leaves what it traced and a restarted one appends;
// Close merges the files, and Cluster.Evidence replays each daemon's WAL
// file. Open clears the workspace of every site it spawns.
//
// Unsupported with this backend: Engines (the engines live in the daemon
// processes; inspect them through the admin API) and membership
// events. A Directory is supported in its static form — the epoch-0
// assignment ships to every daemon, which hosts and recovers only its
// own shards — but epoch bumps (join/leave/move) are not; the directory
// must still be at epoch 0. Durable recovery is always on — a
// restarted daemon replays its WAL, resolves in-doubt transactions with
// MsgInquire frames and pulls missed commits with MsgSnapshot frames
// before turning healthy. The daemons are launched with
// Config.Protocol's name: the name, not the Protocol value, crosses the
// process boundary, so Open refuses a value that is not the one the
// registry holds under that name.
type NetBackend struct {
	wallDriver
	opts NetOptions
	net  *harness.Localnet
	dir  string
	// events is the daemons' trace files merged, read when Close stopped
	// them; nil before.
	events []trace.Event
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
// contents between in-process engines, and daemons have no copy path
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
	if err := registered(cfg.Protocol); err != nil {
		return err
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
	for _, eng := range cfg.Engines {
		if eng != nil {
			return fmt.Errorf("net backend: engines live in the daemon processes; inspect them through the admin API")
		}
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
	// A reused workdir holds an earlier run's logs and traces, and TIDs
	// restart at 1: each site starts from an empty workspace.
	for id := 1; id <= cfg.Sites; id++ {
		if err := netnode.ClearWorkspace(harness.NodeDir(dir, proto.SiteID(id))); err != nil {
			return err
		}
	}
	net, err := harness.Start(harness.Options{
		N: cfg.Sites, ProtoName: cfg.Protocol.Name(), T: b.opts.T,
		Dir: dir, Seed: b.opts.Seed,
		ExtraArgs: []string{"-trace-out", traceFile},
		Placement: placementBytes,
	})
	if err != nil {
		return err
	}
	b.net, b.dir = net, dir
	return nil
}

// registered refuses a protocol the daemons would not run: they resolve
// its name in the registry, so any other value under that name would be
// silently replaced by the registered one.
func registered(p proto.Protocol) error {
	reg, err := registry.Lookup(p.Name())
	if err != nil {
		return fmt.Errorf("net backend: %w", err)
	}
	if reg != p {
		return fmt.Errorf("net backend: daemons launched as %q run %#v, not %#v", p.Name(), reg, p)
	}
	return nil
}

// partition implements wallSites: every daemon's link blocklist, in force
// from one shared instant. A daemon whose block lifts asks again about what
// it holds in doubt.
func (b *NetBackend) partition(g2 []proto.SiteID) {
	if len(g2) > 0 {
		b.net.Partition(g2...) //nolint:errcheck // dead nodes have no links
	} else {
		b.net.Heal() //nolint:errcheck // best-effort
	}
}

// crash implements wallSites: SIGKILL.
func (b *NetBackend) crash(id proto.SiteID) {
	b.net.Kill(id) //nolint:errcheck // already dead is fine
}

// restart implements wallSites: it restarts a killed site's process over
// its surviving workspace and returns the recovery the daemon reports: log
// replay, in-doubt resolution by MsgInquire frames and catch-up by
// MsgSnapshot frames over TCP.
func (b *NetBackend) restart(id proto.SiteID, at sim.Time) (*RecoveryReport, bool) {
	rep := &RecoveryReport{Site: id, At: at}
	if err := b.net.Restart(id); err != nil {
		rep.Err = err.Error()
		return rep, false // the site stays down
	}
	if st, err := b.net.Client(id).Recovery(); err == nil {
		rep.Stats = st
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

// traceFile is the file each daemon streams its trace to, in its
// workspace.
const traceFile = "trace.jsonl"

// evidence implements Backend: the merged trace, once Close has read it,
// and each daemon's WAL file as it stands.
func (b *NetBackend) evidence() (check.Input, []siteLog) {
	in := check.Input{Events: b.events, SkipBounds: true}
	if b.net == nil {
		return in, nil
	}
	var logs []siteLog
	for _, id := range b.net.Sites() {
		// A log that cannot be read holds nothing.
		data, _ := os.ReadFile(filepath.Join(harness.NodeDir(b.dir, id), netnode.WALFile))
		logs = append(logs, siteLog{id: id, data: data, up: b.up(id)})
	}
	return in, logs
}

// close implements wallSites: a graceful stop, then the daemons' trace
// files merged into one timeline. A file that is missing or does not
// parse is an error naming it: every daemon creates its file as it
// starts. Workspace directories are left on disk.
func (b *NetBackend) close() error {
	b.net.Shutdown(10 * time.Second)
	var errs []error
	for _, id := range b.net.Sites() {
		path := filepath.Join(harness.NodeDir(b.dir, id), traceFile)
		evs, err := trace.ReadJSONLFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("net backend: trace of site %d: %w", id, err))
		}
		b.events = append(b.events, evs...)
	}
	sort.SliceStable(b.events, func(i, j int) bool { return b.events[i].At < b.events[j].At })
	return errors.Join(errs...)
}

var (
	_ Backend   = (*NetBackend)(nil)
	_ wallSites = (*NetBackend)(nil)
)
