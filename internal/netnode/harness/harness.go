// Package harness boots a localnet of real termnode processes: it builds
// the daemon binary once, spawns one OS process per site with its own
// workspace directory and log file, waits for every node to report
// healthy, and then injects faults: SIGKILL for a site crash, a fresh
// process over the surviving WAL directory for recovery, and every
// daemon's link blocklist, from one shared instant, for a partition. Tests
// and the cluster NetBackend drive clusters through it.
package harness

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
)

// Options parameterizes a localnet.
type Options struct {
	// N is the number of sites (numbered 1..N).
	N int
	// ProtoName selects the commit protocol by registry name; empty means
	// registry.Default.
	ProtoName string
	// T is the delay bound handed to every node; 0 takes the termnode
	// default.
	T time.Duration
	// Dir is the localnet root; each site gets Dir/node-<id>/ with its WAL
	// and log. Required — tests pass t.TempDir().
	Dir string
	// BinPath is a prebuilt termnode binary; empty builds one (cached per
	// process).
	BinPath string
	// Seed offsets every node's link-delay seed; 0 lets each node derive
	// its own from its ID.
	Seed int64
	// ExtraArgs is appended to every node's command line, e.g. the
	// daemon's -trace-out.
	ExtraArgs []string
	// Placement is the encoded epoch-0 shard assignment
	// (placement.EncodeAssignment) every node is provisioned with; nil
	// means full replication. Because spawn and Restart share the same
	// argv, a restarted node carries the flag too — and still prefers
	// the epoch stack its own WAL recovered.
	Placement []byte
}

// Localnet is a running cluster of termnode processes.
type Localnet struct {
	opts     Options
	bin      string
	peerSpec string
	apiAddrs map[proto.SiteID]string
	// clients holds one Client per site for the localnet's lifetime, so
	// that its connections are reused; across Kill/Restart it redials.
	clients map[proto.SiteID]*netnode.Client

	mu    sync.Mutex
	procs map[proto.SiteID]*process
	// blocked is each site's side of the partition in force, which a site
	// spawned during the cut boots with.
	blocked map[proto.SiteID][]proto.SiteID
}

// cutLead is how far ahead of a Partition or Heal call its shared instant
// lies: room for every daemon's blocklist post to land before it.
const cutLead = 5 * time.Millisecond

type process struct {
	cmd     *exec.Cmd
	logPath string
	waited  chan struct{} // closed once Wait returns
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// buildBinary compiles cmd/termnode once per test process into the
// default build cache location and reuses it for every localnet.
func buildBinary() (string, error) {
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "termnode-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "termnode")
		cmd := exec.Command("go", "build", "-o", buildPath, "termproto/cmd/termnode")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build termnode: %v\n%s", err, out)
		}
	})
	return buildPath, buildErr
}

// Start builds (or reuses) the termnode binary, spawns every site, and
// waits until each reports healthy — which, because a node only turns
// ready after startup recovery, means the whole localnet is recovered
// and serving.
func Start(opts Options) (*Localnet, error) {
	if opts.N < 2 {
		return nil, fmt.Errorf("harness: need at least 2 sites, got %d", opts.N)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("harness: Dir is required")
	}
	if opts.ProtoName == "" {
		opts.ProtoName = registry.Default
	}
	if _, err := registry.Lookup(opts.ProtoName); err != nil {
		return nil, err
	}
	bin := opts.BinPath
	if bin == "" {
		var err error
		if bin, err = buildBinary(); err != nil {
			return nil, err
		}
	}

	ports, err := freePorts(2 * opts.N)
	if err != nil {
		return nil, err
	}
	entries := make([]string, 0, opts.N)
	apiAddrs := make(map[proto.SiteID]string, opts.N)
	clients := make(map[proto.SiteID]*netnode.Client, opts.N)
	for i := 1; i <= opts.N; i++ {
		protoAddr, apiAddr := ports[i-1], ports[opts.N+i-1]
		entries = append(entries, fmt.Sprintf("%d=%s", i, protoAddr))
		apiAddrs[proto.SiteID(i)] = apiAddr
		clients[proto.SiteID(i)] = netnode.NewClient(apiAddr)
	}

	l := &Localnet{
		opts:     opts,
		bin:      bin,
		peerSpec: strings.Join(entries, ","),
		apiAddrs: apiAddrs,
		clients:  clients,
		procs:    make(map[proto.SiteID]*process),
	}
	for i := 1; i <= opts.N; i++ {
		if err := l.spawn(proto.SiteID(i)); err != nil {
			l.Stop()
			return nil, err
		}
	}
	if err := l.WaitHealthy(10 * time.Second); err != nil {
		l.Stop()
		return nil, err
	}
	return l, nil
}

func (l *Localnet) nodeDir(id proto.SiteID) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("node-%d", id))
}

// spawn launches one site's process against its workspace directory,
// appending stdout+stderr to node.log so restarts keep one continuous
// per-node history.
func (l *Localnet) spawn(id proto.SiteID) error {
	dir := l.nodeDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(dir, "node.log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := []string{
		"-id", fmt.Sprint(id),
		"-peers", l.peerSpec,
		"-api", l.apiAddrs[id],
		"-wal-dir", dir,
		"-proto", l.opts.ProtoName,
	}
	if l.opts.T > 0 {
		args = append(args, "-t", l.opts.T.String())
	}
	if l.opts.Seed != 0 {
		args = append(args, "-seed", fmt.Sprint(l.opts.Seed+int64(id)))
	}
	if len(l.opts.Placement) > 0 {
		args = append(args, "-placement", base64.StdEncoding.EncodeToString(l.opts.Placement))
	}
	args = append(args, l.opts.ExtraArgs...)
	// Under l.mu from reading the cut to registering the process: a cut
	// posted meanwhile either is in the argv or finds the site alive.
	l.mu.Lock()
	defer l.mu.Unlock()
	if blocked := l.blocked[id]; len(blocked) > 0 {
		ids := make([]string, len(blocked))
		for i, b := range blocked {
			ids[i] = fmt.Sprint(b)
		}
		args = append(args, "-blocked", strings.Join(ids, ","))
	}
	cmd := exec.Command(l.bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("harness: spawn site %d: %w", id, err)
	}
	logFile.Close() // the child holds its own descriptor
	p := &process{cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // SIGKILL exits are expected
		close(p.waited)
	}()
	l.procs[id] = p
	return nil
}

// pollEvery is how long a wait for readiness sleeps between /health
// rounds: a daemon turns ready a few milliseconds after it is spawned.
const pollEvery = time.Millisecond

// WaitHealthy polls every node's /health until all report ready (at Start,
// and after a Restart).
func (l *Localnet) WaitHealthy(timeout time.Duration) error {
	return l.waitHealthy(timeout, l.Sites()...)
}

// waitHealthy polls the sites' /health every pollEvery until each reports
// ready. It fails with the log tail of every site not ready: at once when
// one of them has no running process (it exited, or was never started or
// restarted), else after timeout.
func (l *Localnet) waitHealthy(timeout time.Duration, ids ...proto.SiteID) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []proto.SiteID
		gone := false
		for _, id := range ids {
			if h, err := l.Client(id).Health(); err != nil || !h.Ready {
				waiting = append(waiting, id)
				gone = gone || !l.running(id)
			}
		}
		if len(waiting) == 0 {
			return nil
		}
		if gone || time.Now().After(deadline) {
			var b strings.Builder
			fmt.Fprintf(&b, "harness: %d/%d nodes healthy", len(ids)-len(waiting), len(ids))
			if !gone {
				fmt.Fprintf(&b, " after %s", timeout)
			}
			for _, id := range waiting {
				state := "not ready"
				if !l.running(id) {
					state = "not running"
				}
				fmt.Fprintf(&b, "\n--- site %d (%s) log tail ---\n%s", id, state, l.LogTail(id, 20))
			}
			return errors.New(b.String())
		}
		time.Sleep(pollEvery)
	}
}

// running reports whether site id has a process that has not exited.
func (l *Localnet) running(id proto.SiteID) bool {
	l.mu.Lock()
	p := l.procs[id]
	l.mu.Unlock()
	if p == nil {
		return false
	}
	select {
	case <-p.waited:
		return false
	default:
		return true
	}
}

// Client returns the localnet's client for one site — the same one on
// every call, safe for concurrent use; Stop and Shutdown close it.
func (l *Localnet) Client(id proto.SiteID) *netnode.Client { return l.clients[id] }

func (l *Localnet) closeClients() {
	for _, c := range l.clients {
		c.Close()
	}
}

// APIAddrs returns every site's admin API address.
func (l *Localnet) APIAddrs() map[proto.SiteID]string {
	out := make(map[proto.SiteID]string, len(l.apiAddrs))
	for id, addr := range l.apiAddrs {
		out[id] = addr
	}
	return out
}

// Sites lists the site identifiers, 1..N.
func (l *Localnet) Sites() []proto.SiteID {
	out := make([]proto.SiteID, 0, l.opts.N)
	for i := 1; i <= l.opts.N; i++ {
		out = append(out, proto.SiteID(i))
	}
	return out
}

// Kill crashes a site with SIGKILL — no shutdown hooks, no final WAL
// flush beyond what the engine already forced, exactly the failure the
// paper's recovery machinery is for.
func (l *Localnet) Kill(id proto.SiteID) error {
	l.mu.Lock()
	p := l.procs[id]
	delete(l.procs, id)
	l.mu.Unlock()
	if p == nil {
		return fmt.Errorf("harness: site %d is not running", id)
	}
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	<-p.waited
	return nil
}

// restartTimeout bounds how long Restart waits for the new process to
// report healthy.
const restartTimeout = 15 * time.Second

// Restart relaunches a previously killed site against its surviving
// workspace directory and returns once it reports healthy: the new
// process has replayed the WAL, resolved in-doubt transactions against
// its peers, and pulled missed commits. A process that exits or is not
// ready within restartTimeout fails it with the site's log tail; it is
// not killed.
func (l *Localnet) Restart(id proto.SiteID) error {
	l.mu.Lock()
	_, running := l.procs[id]
	l.mu.Unlock()
	if running {
		return fmt.Errorf("harness: site %d is already running", id)
	}
	if err := l.spawn(id); err != nil {
		return err
	}
	return l.waitHealthy(restartTimeout, id)
}

// ClearData wipes a stopped site's workspace so its next start is a cold
// one (the daemon's -clear-data, applied from outside).
func (l *Localnet) ClearData(id proto.SiteID) error {
	l.mu.Lock()
	_, running := l.procs[id]
	l.mu.Unlock()
	if running {
		return fmt.Errorf("harness: site %d is running; kill it before clearing", id)
	}
	return netnode.ClearWorkspace(l.nodeDir(id))
}

// Partition cuts group g2 off from the rest of the localnet, both
// directions: from one shared instant on, which has passed when Partition
// returns, a message due to cross the cut bounces back Undeliverable at its
// sender. A site restarted while the cut stands boots behind it.
func (l *Localnet) Partition(g2 ...proto.SiteID) error {
	inG2 := make(map[proto.SiteID]bool, len(g2))
	for _, id := range g2 {
		inG2[id] = true
	}
	blocked := make(map[proto.SiteID][]proto.SiteID, l.opts.N)
	for _, id := range l.Sites() {
		for _, other := range l.Sites() {
			if other != id && inG2[other] != inG2[id] {
				blocked[id] = append(blocked[id], other)
			}
		}
	}
	return l.cut(blocked)
}

// Heal clears every blocklist at one shared instant and, after it, asks
// each node to retry transactions its recovery could not resolve while
// partitioned.
func (l *Localnet) Heal() error {
	if err := l.cut(nil); err != nil {
		return err
	}
	for _, id := range l.Sites() {
		if l.Alive(id) {
			l.Client(id).Resolve() //nolint:errcheck // best-effort heal retry
		}
	}
	return nil
}

// cut makes blocked the partition in force: every live site's list,
// posted at once, is in force from one instant cutLead ahead (a late post
// on arrival, logged by its daemon), and cut returns after that instant.
func (l *Localnet) cut(blocked map[proto.SiteID][]proto.SiteID) error {
	at := time.Now().Add(cutLead)
	l.mu.Lock()
	l.blocked = blocked
	live := make([]proto.SiteID, 0, len(l.procs))
	for id := range l.procs {
		live = append(live, id)
	}
	l.mu.Unlock()
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, id := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Client(id).Partition(blocked[id], at)
		}()
	}
	wg.Wait()
	time.Sleep(time.Until(at))
	return errors.Join(errs...)
}

// Alive reports whether a site's process is running.
func (l *Localnet) Alive(id proto.SiteID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.procs[id]
	return ok
}

// LogTail returns the last n lines of a site's log.
func (l *Localnet) LogTail(id proto.SiteID, n int) string {
	data, err := os.ReadFile(filepath.Join(l.nodeDir(id), "node.log"))
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// freePorts reserves n distinct localhost ports by binding ephemeral
// listeners, recording their addresses, and closing them. The window
// between close and the daemon's bind is a real (small) race; spawn
// failures surface through WaitHealthy with the node's log tail.
func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		out[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out, nil
}

// Stop kills every remaining process. Workspace directories are left for
// the caller (t.TempDir cleans them in tests; CI uploads them on
// failure).
func (l *Localnet) Stop() {
	l.closeClients()
	l.mu.Lock()
	procs := l.procs
	l.procs = make(map[proto.SiteID]*process)
	l.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already dead is fine
	}
	for _, p := range procs {
		<-p.waited
	}
}

// Shutdown stops every remaining process gracefully: SIGTERM first so
// each daemon runs its close hooks (final WAL flush, -trace-out export),
// escalating to SIGKILL for any process still alive after the grace
// period. Use instead of Stop when the daemons' shutdown artifacts
// matter.
func (l *Localnet) Shutdown(grace time.Duration) {
	l.closeClients()
	l.mu.Lock()
	procs := l.procs
	l.procs = make(map[proto.SiteID]*process)
	l.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already dead is fine
	}
	deadline := time.After(grace)
	for _, p := range procs {
		select {
		case <-p.waited:
		case <-deadline:
			p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already dead is fine
			<-p.waited
		}
	}
}
