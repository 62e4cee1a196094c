// Command termsim runs one commit-protocol scenario and judges it: one or
// many concurrent transactions, a scripted fault timeline, and a choice
// of execution backend — the deterministic discrete-event simulator, or
// a localnet of real termnode processes speaking the protocol over TCP
// (-backend net), where a scheduled crash is a SIGKILL and a recovery is
// a fresh process over the surviving write-ahead log.
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
// The flags build one chaos.Scenario, which runs through chaos.Run (sim)
// or chaos.RunNet (net) and is judged by the invariant suite of
// internal/check: decision agreement and durability, the §6 termination
// bounds (sim only), replica convergence, conservation, and every
// transaction decided at every live participant. termsim prints each
// violation and exits 1; a bad flag or a run that could not be set up
// exits 2.
//
// Times are in units of T (the longest end-to-end delay); transaction i
// (from 1) is submitted at i × -spacing. Without -db or -shards a run is
// protocol-only: transactions carry no payload, and -no scripts the sites
// that vote no. With -db every site runs a database engine over -accounts
// rows (balance 1000), each transaction is a chain of transfers through
// -ops accounts drawn with -zipf hot-key skew, and a scheduled recover
// event is a durable restart: log replay, in-doubt resolution via the
// termination protocol's inquiry round, and catch-up from a current
// replica. -shards implies -db and hash-places the rows across the sites
// (-rf replicas per shard) by a versioned shard directory; each
// transaction runs only at the replica sets of the shards it touches at
// its admission epoch.
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
//	termsim -proto 2pc -n 3 -schedule "partition@2.5:3"   # 2PC blocks site 3: exits 1
//	termsim -proto termination -n 5 \
//	        -schedule "partition@2.9:4,5"             # paper's protocol
//	termsim -proto termination+transient -n 5 -txns 12 \
//	        -schedule "partition@2.9:4,5;heal@9.4" -masters rr
//	termsim -backend net -n 3 -txns 4 \
//	        -schedule "crash@1.2:1;recover@8.4:1"     # real processes, real SIGKILL
//	termsim -n 12 -shards 12 -rf 3 -txns 24         # sharded placement
//	termsim -n 5 -txns 8 -db -zipf 0.9 -ops 3 \
//	        -schedule "crash@2.9:5;recover@12.4:5"  # durable crash recovery
//	termsim -n 6 -shards 8 -rf 2 -db -txns 16 \
//	        -schedule "join@6.4:6;leave@16.4:1"      # elastic membership
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"termproto/internal/chaos"
	"termproto/internal/check"
	"termproto/internal/cluster"
	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the scenario, writes its
// report to stdout and its errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("termsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protoName := fs.String("proto", "termination", "protocol name (see -list)")
	list := fs.Bool("list", false, "list protocols and exit")
	n := fs.Int("n", 4, "number of sites")
	txns := fs.Int("txns", 1, "number of concurrent transactions")
	backend := fs.String("backend", "sim", "execution backend: sim, or net (real termnode processes over TCP)")
	workdir := fs.String("workdir", "", "net backend: localnet root for per-node WALs and logs (default a temp dir; left behind for postmortems)")
	masters := fs.String("masters", "", "master policy: fixed (site 1), rr (round-robin), primary (shard-local); default fixed, or primary with -shards")
	shards := fs.Int("shards", 0, "hash-shard the keyspace across this many shards (0 = full replication); implies -db")
	rf := fs.Int("rf", 0, "replicas per shard (default min(3, n); requires -shards)")
	accounts := fs.Int("accounts", 0, "account rows for generated transfer payloads (default 2*shards, or 8)")
	zipfS := fs.Float64("zipf", 0, "zipfian hot-key skew exponent for generated payloads (0 = uniform)")
	opsN := fs.Int("ops", 2, "accounts touched per generated transaction (a chain of transfers)")
	db := fs.Bool("db", false, "attach a database engine at every site and give transactions transfer payloads; scheduled recover events become durable restarts (replay + in-doubt resolution + catch-up)")
	spacing := fs.Float64("spacing", 0.4, "submission spacing between transactions in units of T; the first is submitted one spacing in")
	scheduleSpec := fs.String("schedule", "",
		"fault timeline: ev@t[:args][;...] with ev in partition|heal|crash|recover|join|leave|move, t in units of T (join, leave and move require -shards)")
	noVotes := fs.String("no", "", "comma-separated sites that vote no (protocol-only runs: not with -db or -shards)")
	seed := fs.Uint64("seed", 1, "random seed")
	latency := fs.String("latency", "fixed", "latency model (sim backend): fixed (=T) or uniform [T/3,T]")
	showTrace := fs.Bool("trace", false, "dump the full execution trace")
	showMetrics := fs.Bool("metrics", false, "print a one-screen metrics summary (latency quantiles, engine/WAL/wire counters)")
	traceOut := fs.String("trace-out", "", "write the run's protocol trace as JSONL to this file (on -backend net, the daemons' traces merged)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "termsim: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, name := range registry.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if _, err := registry.Lookup(*protoName); err != nil {
		return fail("unknown protocol %q (use -list)", *protoName)
	}
	sched, err := parseSchedule(*scheduleSpec)
	if err != nil {
		return fail("%v", err)
	}
	sc := chaos.Scenario{
		Seed:     *seed,
		Protocol: *protoName,
		Sites:    *n,
		Shards:   *shards,
		RF:       *rf,
		Masters:  *masters,
		Txns:     *txns,
		Spacing:  sim.Duration(ticks(*spacing)),
		Schedule: sched,
	}
	if *shards > 0 {
		if *rf == 0 {
			sc.RF = min(3, *n)
		}
	} else if *rf != 0 {
		return fail("-rf requires -shards")
	} else {
		for _, ev := range sched {
			if ev.Kind == cluster.EvJoin || ev.Kind == cluster.EvLeave || ev.Kind == cluster.EvMove {
				return fail("join, leave and move events require -shards")
			}
		}
	}
	switch *latency {
	case "fixed":
		sc.Latency = simnet.Fixed{D: sim.DefaultT}
	case "uniform": // the scenario default
	default:
		return fail("unknown latency model %q", *latency)
	}
	if *opsN < 2 {
		return fail("-ops must be at least 2")
	}
	if *db || *shards > 0 {
		if *noVotes != "" {
			return fail("-no scripts the votes of sites without a database; with -db or -shards every site votes by its engine")
		}
		sc.Accounts, sc.Balance, sc.Ops, sc.Zipf = *accounts, 1000, *opsN, *zipfS
		if sc.Accounts == 0 && *shards > 0 {
			sc.Accounts = 2 * *shards
		} else if sc.Accounts == 0 {
			sc.Accounts = 8
		}
	} else if *zipfS != 0 || *opsN != 2 {
		return fail("-zipf/-ops shape generated payloads; they require -shards or -db")
	} else if sc.NoVotes, err = parseSites(*noVotes); err != nil {
		return fail("%v", err)
	}

	// On net every site becomes a real termnode process, launched under
	// the protocol's registry name.
	r, vs, err := chaos.RunOn(sc, *backend, *workdir)
	if err != nil {
		return fail("%v", err)
	}
	report(stdout, r, *backend, vs)
	if *showMetrics {
		printMetrics(stdout, r.Metrics())
	}
	if *showTrace {
		fmt.Fprintln(stdout, "\ntrace:")
		fmt.Fprint(stdout, recorder(r.Events).Dump())
	}
	if *traceOut != "" {
		if err := trace.WriteJSONLFile(*traceOut, r.Events); err != nil {
			fmt.Fprintf(stderr, "termsim: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:       %d events -> %s\n", len(r.Events), *traceOut)
	}
	if len(vs) > 0 {
		return 1
	}
	return 0
}

// report prints the run: its shape and schedule, one line per
// transaction (or, for a single one, the per-site table and its §6
// case), the recoveries and migrations, the stats, and the verdict.
func report(w io.Writer, r *chaos.Result, backend string, vs []check.Violation) {
	sc := r.Scenario
	fmt.Fprintf(w, "protocol %s, %d sites, %d txns, %s backend, T=%d ticks\n",
		sc.Protocol, sc.Sites, sc.Txns, backend, sim.DefaultT)
	if r.Workdir != "" {
		fmt.Fprintf(w, "  localnet workspace: %s\n", r.Workdir)
	}
	if d := r.Directory; d != nil {
		_, asg := d.Current()
		fmt.Fprintf(w, "  sharded placement (epoch %d): %s\n", d.Epoch(), asg)
	}
	if backend == "net" && sc.Accounts > 0 {
		fmt.Fprintf(w, "  seeded %d accounts through the cluster (initial balance %d); schedule and traffic follow the seed round\n", sc.Accounts, sc.Balance)
	}
	for _, ev := range r.Schedule.Sorted() {
		fmt.Fprintf(w, "  %s\n", describeEvent(ev))
	}
	fmt.Fprintln(w)

	for _, res := range r.Transfers {
		if sc.Txns > 1 {
			roster := ""
			if r.Directory != nil {
				roster = fmt.Sprintf(", sites %v", res.Participants)
			}
			fmt.Fprintf(w, "txn %d (master %d%s): %-6s  consistent=%v blocked=%v\n",
				res.TID, res.Master, roster, res.Outcome(), res.Consistent(), res.Blocked())
			continue
		}
		for i := 1; i <= sc.Sites; i++ {
			id := proto.SiteID(i)
			s := res.Sites[id]
			if s == nil {
				fmt.Fprintf(w, "site %d: not a participant\n", i)
				continue
			}
			when := "—"
			if s.Outcome != proto.None {
				when = fmt.Sprintf("%.2fT", float64(s.DecidedAt)/float64(sim.DefaultT))
			}
			role := "slave "
			if id == res.Master {
				role = "master"
			}
			fmt.Fprintf(w, "site %d (%s): %-6s at %-7s final state %s\n",
				i, role, s.Outcome, when, s.FinalState)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "atomic (consistent): %v\n", res.Consistent())
		fmt.Fprintf(w, "blocked sites:       %v\n", res.Blocked())
		if backend == "sim" {
			fmt.Fprintf(w, "§6 case:             %s\n", scenario.Classify(recorder(r.Events), int(res.Master)))
		}
	}

	if len(r.Recoveries) > 0 {
		fmt.Fprintln(w, "recoveries:")
		for _, rep := range r.Recoveries {
			fmt.Fprintf(w, "  %s\n", rep)
		}
		fmt.Fprintln(w)
	}
	if len(r.Migrations) > 0 {
		fmt.Fprintln(w, "migrations:")
		for _, m := range r.Migrations {
			fmt.Fprintf(w, "  %s\n", m)
		}
		if d := r.Directory; d != nil {
			_, asg := d.Current()
			fmt.Fprintf(w, "  final: epoch %d, %s\n", d.Epoch(), asg)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "stats:       %s\n", r.Stats)
	if len(vs) == 0 {
		fmt.Fprintln(w, "verify:      ok (no violations)")
		return
	}
	fmt.Fprintf(w, "verify:      %d violations\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// recorder wraps a run's events for the trace package's readers.
func recorder(events []trace.Event) *trace.Recorder {
	rec := &trace.Recorder{}
	for _, e := range events {
		rec.Append(e)
	}
	return rec
}

// printMetrics renders the one-screen observability summary: per-site
// latency quantiles in units of T, since the site learned of the
// transaction (fsync in µs — it is wall time on every backend), and the
// counter seams, skipping families this run produced no traffic for.
func printMetrics(stdout io.Writer, snap obs.Snapshot) {
	// Latencies are recorded in thousandths of T.
	inT := func(name string, q float64, labels ...obs.Label) float64 {
		return snap.Quantile(name, q, labels...) / 1000
	}
	decided := obs.L("phase", "decided")
	fmt.Fprintln(stdout, "\nmetrics:")
	if n := snap.Value(obs.MRoundLatency, decided); n > 0 {
		fmt.Fprintf(stdout, "  site decided after:       n=%-4d p50=%.2fT p99=%.2fT\n", n,
			inT(obs.MRoundLatency, 0.5, decided), inT(obs.MRoundLatency, 0.99, decided))
	}
	if n := snap.Total(obs.MShardCommitLatency); n > 0 {
		fmt.Fprintf(stdout, "  site committed after:     n=%-4d p50=%.2fT p99=%.2fT\n", n,
			inT(obs.MShardCommitLatency, 0.5), inT(obs.MShardCommitLatency, 0.99))
	}
	if c, a := snap.Total(obs.MCommits), snap.Total(obs.MAborts); c+a > 0 {
		waits := map[string]int64{} // by outcome
		if f := snap.Family(obs.MLockWaits); f != nil {
			for _, s := range f.Series {
				waits[s.Label("outcome")] += s.Value
			}
		}
		fmt.Fprintf(stdout, "  engine decisions:         commits=%d aborts=%d lock-failures=%d wounds=%d waits=%d (granted %d, expired %d, dropped %d)\n",
			c, a, snap.Total(obs.MLockFailures), snap.Total(obs.MLockWounds),
			snap.Total(obs.MLockWaits), waits["granted"], waits["expired"], waits["dropped"])
	}
	if recs := snap.Total(obs.MWalRecords); recs > 0 {
		fmt.Fprintf(stdout, "  wal:                      records=%d syncs=%d fsync p50=%.0fµs p99=%.0fµs\n",
			recs, snap.Total(obs.MWalSyncs),
			snap.Quantile(obs.MWalFsyncLatency, 0.5), snap.Quantile(obs.MWalFsyncLatency, 0.99))
	}
	if snap.Total(obs.MNetFrames) > 0 {
		fmt.Fprintf(stdout, "  wire:                     sent %d frames / %d bytes, recv %d frames / %d bytes\n",
			snap.Value(obs.MNetFrames, obs.L("dir", "sent")), snap.Value(obs.MNetBytes, obs.L("dir", "sent")),
			snap.Value(obs.MNetFrames, obs.L("dir", "recv")), snap.Value(obs.MNetBytes, obs.L("dir", "recv")))
	}
}

func ticks(unitsOfT float64) sim.Time {
	return sim.Time(math.Round(unitsOfT * float64(sim.DefaultT)))
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
			ids, err := parseSites(args)
			if err != nil {
				return nil, err
			}
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

func parseSites(spec string) ([]proto.SiteID, error) {
	var out []proto.SiteID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad site %q", part)
		}
		out = append(out, proto.SiteID(v))
	}
	return out, nil
}
