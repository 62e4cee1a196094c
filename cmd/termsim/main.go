// Command termsim runs commit-protocol scenarios through the unified
// cluster API: one or many concurrent transactions, a scripted fault
// timeline, and a choice of execution backend — the deterministic
// discrete-event simulator, or a localnet of real termnode processes
// speaking the protocol over TCP (-backend net), where a scheduled crash
// is a SIGKILL and a recovery is a fresh process over the surviving
// write-ahead log.
//
// Usage:
//
//	termsim [-proto NAME] [-n sites] [-txns k] [-backend sim|net]
//	        [-masters fixed|rr|primary] [-spacing 0.4]
//	        [-shards s] [-rf r] [-accounts a] [-zipf s] [-ops k] [-db]
//	        [-schedule "partition@2.5:3,4;heal@7;crash@8:2;recover@9:2;join@10:6;leave@14:2;move@18:3,1,5"]
//	        [-no 3] [-seed 1] [-latency fixed|uniform] [-trace]
//	        [-metrics] [-trace-out run.jsonl]
//
// Times are in units of T (the longest end-to-end delay). With -shards the
// keyspace is hash-placed across the sites (-rf replicas per shard) by a
// versioned shard directory, transactions carry transfer payloads over
// -accounts rows, and each runs only at its participant sites — the
// replica sets of the shards it touches at its admission epoch. -zipf
// skews the generated payloads toward hot keys and -ops chains each
// transaction through that many accounts. With -db every site runs a
// WAL-backed database engine and a scheduled recover event is a durable
// restart: log replay, in-doubt resolution via the termination protocol's
// inquiry round, and catch-up from a current replica.
//
// Elastic membership: join@t:site schedules a site joining the directory
// at time t (a site whose first membership event is a join starts outside
// the membership and owns no shards until then), leave@t:site drains a
// member's shards and removes it, and move@t:shard,from,to hands one
// shard replica over. Each change migrates data through the recovery
// catch-up machinery and commits its epoch bump as a metadata transaction
// through the selected commit protocol. Membership runs on the simulator
// only: the net backend rejects it. Examples:
//
//	termsim -proto 2pc -n 3 -schedule "partition@2.1:3"   # 2PC blocks site 3
//	termsim -proto termination -n 5 \
//	        -schedule "partition@2.5:4,5"             # paper's protocol
//	termsim -proto termination+transient -n 5 -txns 12 \
//	        -schedule "partition@2.5:4,5;heal@9" -masters rr
//	termsim -backend net -n 3 -txns 4 \
//	        -schedule "crash@0.8:1;recover@8:1"       # real processes, real SIGKILL
//	termsim -n 12 -shards 12 -rf 3 -txns 24         # sharded placement
//	termsim -n 5 -txns 8 -db -zipf 0.9 -ops 3 \
//	        -schedule "crash@2.5:5;recover@12:5"    # durable crash recovery
//	termsim -n 6 -shards 8 -rf 2 -db -txns 16 \
//	        -schedule "join@6:6;leave@16:1"          # elastic membership
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
	"termproto/internal/workload"
)

func main() {
	protoName := flag.String("proto", "termination", "protocol name (see -list)")
	list := flag.Bool("list", false, "list protocols and exit")
	n := flag.Int("n", 4, "number of sites")
	txns := flag.Int("txns", 1, "number of concurrent transactions")
	backend := flag.String("backend", "sim", "execution backend: sim, or net (real termnode processes over TCP)")
	workdir := flag.String("workdir", "", "net backend: localnet root for per-node WALs and logs (default a temp dir; left behind for postmortems)")
	masters := flag.String("masters", "", "master policy: fixed (site 1), rr (round-robin), primary (shard-local); default fixed, or primary with -shards")
	shards := flag.Int("shards", 0, "hash-shard the keyspace across this many shards (0 = full replication)")
	rf := flag.Int("rf", 0, "replicas per shard (default min(3, n); requires -shards)")
	accounts := flag.Int("accounts", 0, "account rows for generated transfer payloads (default 2*shards, or 8)")
	zipfS := flag.Float64("zipf", 0, "zipfian hot-key skew exponent for generated payloads (0 = uniform)")
	opsN := flag.Int("ops", 2, "accounts touched per generated transaction (a chain of transfers)")
	db := flag.Bool("db", false, "attach a WAL-backed database engine at every site; scheduled recover events become durable restarts (replay + in-doubt resolution + catch-up)")
	spacing := flag.Float64("spacing", 0.4, "submission spacing between transactions in units of T")
	scheduleSpec := flag.String("schedule", "",
		"fault timeline: ev@t[:args][;...] with ev in partition|heal|crash|recover|join|leave|move, t in units of T (join, leave and move require -shards)")
	noVotes := flag.String("no", "", "comma-separated sites that vote no")
	seed := flag.Uint64("seed", 1, "random seed")
	latency := flag.String("latency", "fixed", "latency model: fixed (=T) or uniform [T/3,T]")
	showTrace := flag.Bool("trace", false, "dump the full execution trace (sim backend)")
	showMetrics := flag.Bool("metrics", false, "print a one-screen metrics summary (latency quantiles, engine/WAL/wire counters)")
	traceOut := flag.String("trace-out", "", "write the run's protocol trace as JSONL to this file (sim backend; on -backend net pass the daemons' own -trace-out via termnode)")
	flag.Parse()

	if *list {
		for _, name := range registry.Names() {
			fmt.Println(name)
		}
		return
	}

	p, err := registry.Lookup(*protoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "termsim: unknown protocol %q (use -list)\n", *protoName)
		os.Exit(2)
	}

	sched, err := parseSchedule(*scheduleSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
		os.Exit(2)
	}
	hasMembership := false
	for _, ev := range sched {
		if ev.Kind == cluster.EvJoin || ev.Kind == cluster.EvLeave || ev.Kind == cluster.EvMove {
			hasMembership = true
		}
	}

	cfg := cluster.Config{Sites: *n, Protocol: p, Schedule: sched}
	if *shards > 0 {
		if *rf == 0 {
			*rf = min(3, *n)
		}
		// Sites whose first membership event is a join start outside the
		// directory (provisioned, empty).
		asg, err := placement.ArithmeticOver(*shards, *rf, initialMembers(*n, sched))
		if err != nil {
			fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
			os.Exit(2)
		}
		cfg.Directory = placement.NewDirectory(asg)
	} else if *rf != 0 {
		fmt.Fprintln(os.Stderr, "termsim: -rf requires -shards")
		os.Exit(2)
	} else if hasMembership {
		fmt.Fprintln(os.Stderr, "termsim: join, leave and move events require -shards")
		os.Exit(2)
	}
	switch *masters {
	case "", "fixed": // cluster default: fixed, or primary with a Directory
	case "rr":
		cfg.MasterPolicy = cluster.MasterRoundRobin()
	case "primary":
		cfg.MasterPolicy = cluster.MasterPrimary()
	default:
		fmt.Fprintf(os.Stderr, "termsim: unknown master policy %q\n", *masters)
		os.Exit(2)
	}
	if ids := parseSites(*noVotes); len(ids) > 0 {
		cfg.Votes = proto.NoAt(ids...)
	}
	if *opsN < 2 {
		fmt.Fprintln(os.Stderr, "termsim: -ops must be at least 2")
		os.Exit(2)
	}
	if (*zipfS != 0 || *opsN != 2) && *shards == 0 && !*db {
		fmt.Fprintln(os.Stderr, "termsim: -zipf/-ops shape generated payloads; they require -shards or -db")
		os.Exit(2)
	}
	numAccounts := *accounts
	if numAccounts == 0 {
		if *shards > 0 {
			numAccounts = 2 * *shards
		} else {
			numAccounts = 8
		}
	}
	if *db {
		// The workload's fixture builder places and seeds the engines,
		// wired to the same directory the cluster resolves through — so a
		// join's incoming shards land on the new engine mid-migration.
		engs := workload.EnginesFor(cfg.Directory, *n, numAccounts, 1000)
		cfg.Participants = make(map[proto.SiteID]cluster.Participant, *n)
		for id, e := range engs {
			cfg.Participants[id] = e
		}
	}

	var simBackend *cluster.SimBackend
	var netBackend *cluster.NetBackend
	switch *backend {
	case "sim":
		opts := cluster.SimOptions{Seed: *seed, RecordTrace: *showTrace || *traceOut != "" || *txns == 1}
		if *latency == "uniform" {
			opts.Latency = simnet.Uniform{Lo: sim.DefaultT / 3, Hi: sim.DefaultT}
		}
		simBackend = cluster.NewSimBackend(opts)
		cfg.Backend = simBackend
	case "net":
		// Every site becomes a real termnode process, launched under the
		// protocol's Name() — the registry name -proto was looked up by.
		netBackend = cluster.NewNetBackend(cluster.NetOptions{
			Workdir: *workdir,
			Seed:    int64(*seed),
		})
		cfg.Backend = netBackend
	default:
		fmt.Fprintf(os.Stderr, "termsim: unknown backend %q\n", *backend)
		os.Exit(2)
	}

	c, err := cluster.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
		os.Exit(2)
	}
	// On the process backend the daemons' engines start empty, so a
	// sharded run without -db seeds the generated accounts through the
	// cluster itself before traffic starts. Without it every generated
	// transfer would debit a missing account and vote no.
	seeded := netBackend != nil && cfg.Directory != nil && !*db
	if seeded {
		if err := workload.SeedAccounts(c, numAccounts, 1000); err != nil {
			fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
			c.Close()
			os.Exit(2)
		}
	}
	batch := make([]cluster.Txn, *txns)
	base := sim.Time(0)
	if seeded {
		base = c.Now() + sim.Time(sim.DefaultT)
	}
	for i := range batch {
		batch[i].At = base + sim.Time(float64(i)**spacing*float64(sim.DefaultT))
	}
	if cfg.Directory != nil || *db {
		// Sharded and database-backed runs carry transfer payloads so the
		// placement layer has keys to route and the engines have writes to
		// log: chains of -ops accounts, hot-key-skewed by -zipf.
		rng := sim.NewRand(*seed + 0x5ad)
		z := workload.NewZipf(numAccounts, *zipfS)
		for i := range batch {
			chain := z.DrawDistinct(rng, *opsN)
			batch[i].Payload = engine.EncodeOps(workload.ChainOps(chain, 1))
		}
	}
	rs, err := c.SubmitBatch(batch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
		os.Exit(2)
	}
	if err := c.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "termsim: %v\n", err)
		// A wait that ran out of time still has results worth printing.
		if !errors.As(err, new(*cluster.UndecidedError)) {
			os.Exit(2)
		}
	}
	// The metrics snapshot must precede Close: on the net backend it
	// merges the daemons' registries over their admin APIs, and Close
	// tears the processes down.
	var msnap obs.Snapshot
	if *showMetrics {
		msnap = c.Metrics()
	}
	c.Close() // net backend: fills final automaton states

	fmt.Printf("protocol %s, %d sites, %d txns, %s backend, T=%d ticks\n",
		p.Name(), *n, *txns, cfg.Backend.Name(), sim.DefaultT)
	if netBackend != nil {
		fmt.Printf("  localnet workspace: %s\n", netBackend.Workdir())
	}
	if d := cfg.Directory; d != nil {
		_, asg := d.Current()
		fmt.Printf("  sharded placement (epoch %d): %s\n", d.Epoch(), asg)
	}
	if seeded {
		fmt.Printf("  seeded %d accounts through the cluster (initial balance 1000)\n", numAccounts)
	}
	for _, ev := range sched.Sorted() {
		fmt.Printf("  %s\n", describeEvent(ev))
	}
	fmt.Println()

	for _, r := range rs {
		if *txns > 1 {
			if cfg.Directory != nil {
				fmt.Printf("txn %d (master %d, sites %v): %-6s  consistent=%v blocked=%v\n",
					r.TID, r.Master, r.Participants, r.Outcome(), r.Consistent(), r.Blocked())
			} else {
				fmt.Printf("txn %d (master %d): %-6s  consistent=%v blocked=%v\n",
					r.TID, r.Master, r.Outcome(), r.Consistent(), r.Blocked())
			}
			continue
		}
		for i := 1; i <= *n; i++ {
			id := proto.SiteID(i)
			s := r.Sites[id]
			if s == nil {
				fmt.Printf("site %d: not a participant\n", i)
				continue
			}
			when := "—"
			if s.Outcome != proto.None {
				when = fmt.Sprintf("%.2fT", float64(s.DecidedAt)/float64(sim.DefaultT))
			}
			role := "slave "
			if id == r.Master {
				role = "master"
			}
			fmt.Printf("site %d (%s): %-6s at %-7s final state %s\n",
				i, role, s.Outcome, when, s.FinalState)
		}
		fmt.Println()
		fmt.Printf("atomic (consistent): %v\n", r.Consistent())
		fmt.Printf("blocked sites:       %v\n", r.Blocked())
		if simBackend != nil {
			fmt.Printf("§6 case:             %s\n",
				scenario.Classify(simBackend.Trace(), int(r.Master)))
		}
	}

	if reps := c.Recoveries(); len(reps) > 0 {
		fmt.Println("recoveries:")
		for _, r := range reps {
			fmt.Printf("  %s\n", r)
		}
		fmt.Println()
	}

	if ms := c.Migrations(); len(ms) > 0 {
		fmt.Println("migrations:")
		for _, m := range ms {
			fmt.Printf("  %s\n", m)
		}
		if d := cfg.Directory; d != nil {
			_, asg := d.Current()
			fmt.Printf("  final: epoch %d, %s\n", d.Epoch(), asg)
		}
		fmt.Println()
	}

	st := c.Stats()
	fmt.Println()
	fmt.Printf("stats:       %s\n", st)
	fmt.Printf("termination: %v\n", termination(c))
	if *showMetrics {
		printMetrics(msnap)
	}
	if *showTrace && simBackend != nil {
		fmt.Println("\ntrace:")
		fmt.Print(simBackend.Trace().Dump())
	}
	if *traceOut != "" {
		if simBackend == nil {
			fmt.Fprintln(os.Stderr, "termsim: -trace-out needs the sim backend (daemons export their own with termnode -trace-out)")
			os.Exit(2)
		}
		events := simBackend.Trace().Events()
		if err := trace.WriteJSONLFile(*traceOut, events); err != nil {
			fmt.Fprintf(os.Stderr, "termsim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace:       %d events -> %s\n", len(events), *traceOut)
	}
	if st.Inconsistent > 0 {
		os.Exit(1)
	}
}

// printMetrics renders the one-screen observability summary: per-site
// latency quantiles in units of T, since the site learned of the
// transaction (fsync in µs — it is wall time on every backend), and the
// counter seams, skipping families this run produced no traffic for.
func printMetrics(snap obs.Snapshot) {
	// Latencies are recorded in thousandths of T.
	inT := func(name string, q float64, labels ...obs.Label) float64 {
		return snap.Quantile(name, q, labels...) / 1000
	}
	decided := obs.L("phase", "decided")
	fmt.Println("\nmetrics:")
	if n := snap.Value(obs.MRoundLatency, decided); n > 0 {
		fmt.Printf("  site decided after:       n=%-4d p50=%.2fT p99=%.2fT\n", n,
			inT(obs.MRoundLatency, 0.5, decided), inT(obs.MRoundLatency, 0.99, decided))
	}
	if n := snap.Total(obs.MShardCommitLatency); n > 0 {
		fmt.Printf("  site committed after:     n=%-4d p50=%.2fT p99=%.2fT\n", n,
			inT(obs.MShardCommitLatency, 0.5), inT(obs.MShardCommitLatency, 0.99))
	}
	if c, a := snap.Total(obs.MCommits), snap.Total(obs.MAborts); c+a > 0 {
		fmt.Printf("  engine decisions:         commits=%d aborts=%d lock-failures=%d\n",
			c, a, snap.Total(obs.MLockFailures))
	}
	if recs := snap.Total(obs.MWalRecords); recs > 0 {
		fmt.Printf("  wal:                      records=%d syncs=%d fsync p50=%.0fµs p99=%.0fµs\n",
			recs, snap.Total(obs.MWalSyncs),
			snap.Quantile(obs.MWalFsyncLatency, 0.5), snap.Quantile(obs.MWalFsyncLatency, 0.99))
	}
	if snap.Total(obs.MNetFrames) > 0 {
		fmt.Printf("  wire:                     sent %d frames / %d bytes, recv %d frames / %d bytes\n",
			snap.Value(obs.MNetFrames, obs.L("dir", "sent")), snap.Value(obs.MNetBytes, obs.L("dir", "sent")),
			snap.Value(obs.MNetFrames, obs.L("dir", "recv")), snap.Value(obs.MNetBytes, obs.L("dir", "recv")))
	}
}

func termination(c *cluster.Cluster) string {
	if err := c.Termination(); err != nil {
		return err.Error()
	}
	return "ok (every transaction decided, atomically)"
}

func ticks(unitsOfT float64) sim.Time {
	return sim.Time(unitsOfT * float64(sim.DefaultT))
}

func describeEvent(ev cluster.Event) string {
	t := float64(ev.At) / float64(sim.DefaultT)
	switch ev.Kind {
	case cluster.EvPartition:
		s := fmt.Sprintf("partition at %.2fT separating %v", t, ev.G2)
		if ev.Heal > ev.At {
			s += fmt.Sprintf(", heals at %.2fT", float64(ev.Heal)/float64(sim.DefaultT))
		}
		return s
	case cluster.EvHeal:
		return fmt.Sprintf("heal at %.2fT", t)
	case cluster.EvCrash:
		return fmt.Sprintf("site %d crashes at %.2fT", ev.Site, t)
	case cluster.EvRecover:
		return fmt.Sprintf("site %d recovers at %.2fT", ev.Site, t)
	case cluster.EvJoin:
		return fmt.Sprintf("site %d joins at %.2fT", ev.Site, t)
	case cluster.EvLeave:
		return fmt.Sprintf("site %d leaves at %.2fT", ev.Site, t)
	case cluster.EvMove:
		return fmt.Sprintf("shard %d moves %d->%d at %.2fT", ev.Shard, ev.From, ev.Site, t)
	default:
		return fmt.Sprintf("event %v at %.2fT", ev.Kind, t)
	}
}

// initialMembers derives the directory's starting membership: every site
// except those whose first membership event on the timeline is a join —
// they begin as provisioned, empty capacity.
func initialMembers(sites int, sched cluster.Schedule) []proto.SiteID {
	first := make(map[proto.SiteID]cluster.EventKind)
	for _, ev := range sched.Sorted() {
		if ev.Kind != cluster.EvJoin && ev.Kind != cluster.EvLeave {
			continue
		}
		if _, seen := first[ev.Site]; !seen {
			first[ev.Site] = ev.Kind
		}
	}
	var out []proto.SiteID
	for i := 1; i <= sites; i++ {
		if id := proto.SiteID(i); first[id] != cluster.EvJoin {
			out = append(out, id)
		}
	}
	return out
}

// parseSchedule parses "partition@2.5:3,4;heal@7;crash@8:2;recover@9:2".
func parseSchedule(spec string) (cluster.Schedule, error) {
	var out cluster.Schedule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("bad schedule entry %q (want ev@t[:args])", entry)
		}
		tStr, args, _ := strings.Cut(rest, ":")
		t, err := strconv.ParseFloat(tStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in %q: %v", entry, err)
		}
		switch kind {
		case "partition":
			ids := parseSites(args)
			if len(ids) == 0 {
				return nil, fmt.Errorf("partition needs sites: %q", entry)
			}
			out = append(out, cluster.PartitionAt(ticks(t), ids...))
		case "heal":
			out = append(out, cluster.HealAt(ticks(t)))
		case "crash", "recover", "join", "leave":
			site, err := strconv.Atoi(strings.TrimSpace(args))
			if err != nil {
				return nil, fmt.Errorf("%s needs a site: %q", kind, entry)
			}
			switch kind {
			case "crash":
				out = append(out, cluster.CrashAt(ticks(t), proto.SiteID(site)))
			case "recover":
				out = append(out, cluster.RecoverAt(ticks(t), proto.SiteID(site)))
			case "join":
				out = append(out, cluster.JoinAt(ticks(t), proto.SiteID(site)))
			case "leave":
				out = append(out, cluster.LeaveAt(ticks(t), proto.SiteID(site)))
			}
		case "move":
			parts := strings.Split(args, ",")
			if len(parts) != 3 {
				return nil, fmt.Errorf("move needs shard,from,to: %q", entry)
			}
			var nums [3]int
			for i, p := range parts {
				if nums[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
					return nil, fmt.Errorf("bad number in %q: %v", entry, err)
				}
			}
			out = append(out, cluster.MoveShardAt(ticks(t), nums[0], proto.SiteID(nums[1]), proto.SiteID(nums[2])))
		default:
			return nil, fmt.Errorf("unknown event %q in %q", kind, entry)
		}
	}
	return out, nil
}

func parseSites(spec string) []proto.SiteID {
	var out []proto.SiteID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "termsim: bad site %q\n", part)
			os.Exit(2)
		}
		out = append(out, proto.SiteID(v))
	}
	return out
}
