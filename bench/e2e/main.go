// Command e2e is the repository's end-to-end benchmark: it boots a 3-site
// localnet of real termnode processes, drives one open-loop workload
// against it through the admin API, checks the resulting state, and
// prints every metric by name and unit. bench/README.md defines the
// workloads and metrics; bench/run.sh builds and runs it.
//
// One invocation is one run of one workload:
//
//	e2e -termnode BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the daemons run untraced for S seconds and the last
// line of standard output carries the end-to-end metrics; with --trace 1
// the window is split into an untraced and a traced half and the last
// line carries the per-layer metrics. -workload all runs every workload
// both ways; -repeat N prints each end-to-end metric's spread over N
// seeds beside its bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Exit codes.
const (
	exitIncorrect = 1 // the cluster's state failed the correctness check
	exitError     = 2 // usage, build artefacts missing, no attempt got as far as a result
)

// errDisturbed marks an attempt that measured the host more than the
// program: the machine was saturated, a host stall split a transaction,
// the generator was frozen, or the hypervisor gave the CPU to other
// guests. Its numbers are worth replacing, and still worth more than none.
var errDisturbed = errors.New("disturbed run")

type config struct {
	bin, workdir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.bin, "termnode", "", "path of the built termnode binary (bench/run.sh builds it)")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for localnet workspaces; must be inside the checkout")
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same transfers")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, daemons untraced; 1: per-layer metrics from a traced half")
	repeat := flag.Int("repeat", 0, "run N seeds and print each end-to-end metric's min/median/max beside its bound")
	flag.Parse()

	if _, err := os.Stat(cfg.bin); err != nil || cfg.workdir == "" || *seconds < 2 || *seed == 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "e2e: need -termnode, -workdir, -seconds >= 2, a non-zero -seed and -trace 0 or 1; run it through bench/run.sh")
		os.Exit(exitError)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(exitError)
		}
		todo = []workload{w}
	}
	measure := time.Duration(*seconds) * time.Second

	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		code = exitError
	}
	for _, w := range todo {
		if *repeat > 0 {
			if err := repeatRuns(cfg, w, *seed, measure, *repeat); err != nil {
				fail(err)
			}
			continue
		}
		modes := []bool{*traced == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			res, err := runValid(cfg, w, *seed, measure, tr)
			if err != nil {
				fail(err)
				continue
			}
			line, err := json.Marshal(res)
			if err != nil { // a NaN among the metrics
				fail(err)
				continue
			}
			fmt.Println(string(line))
			if !res.Correct && code == 0 {
				code = exitIncorrect
			}
		}
	}
	os.Exit(code)
}

// leg is one localnet lifetime: set-up, then measure of the workload
// (zero for a leg that only repeats set-up).
type leg struct {
	setup   setupTimes
	traffic *traffic
	win     window   // the measured transactions, summarized
	a, b    counters // at the two ends of the measured window
	verdict verdict
	stages  *stageStats
}

const (
	startLead   = 10 * time.Millisecond // between building the schedule and its first arrival
	settleAfter = 10 * delayT
)

// runner makes the localnets of one run of one workload, over however
// many attempts the run takes.
type runner struct {
	cfg  config
	w    workload
	seed int64

	booted int          // localnets started so far, failed ones too: it names their workdirs
	setups []setupTimes // of every localnet that came up
}

// leg boots a localnet and seeds it; with measure > 0 it goes on to warm
// up and measure. A set-up-only leg stops before the warm-up: that is a
// fixed stretch of the workload's own traffic, which repeats to the
// millisecond and would only make every run two warm-ups longer.
func (r *runner) leg(measure time.Duration, traced bool) (l *leg, err error) {
	dir := filepath.Join(r.cfg.workdir, fmt.Sprintf("%s-%d-leg%d", r.w.name, r.seed, r.booted))
	r.booted++
	// A leg that went wrong keeps its node logs, WALs and traces.
	defer func() {
		if err == nil && len(l.verdict.problems) == 0 {
			os.RemoveAll(dir)
		}
	}()
	t0 := time.Now()
	c, err := boot(r.cfg.bin, dir, r.seed, traced)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer c.net.Stop() // no-op after Shutdown
	tSpawned := time.Now()
	if err := c.seedAccounts(); err != nil {
		return nil, err
	}
	tSeeded := time.Now()
	l = &leg{setup: setupTimes{
		spawn: tSpawned.Sub(t0).Seconds(),
		seed:  tSeeded.Sub(tSpawned).Seconds(),
	}}
	defer func() {
		if err == nil {
			r.setups = append(r.setups, l.setup)
		}
	}()
	if measure == 0 {
		return l, nil
	}

	w := r.w
	arrivals := schedule(w, r.seed, warmUp+measure)
	start := time.Now().Add(startLead)
	stop := make(chan struct{})
	done := make(chan *traffic, 1)
	go func() { done <- drive(c, w, arrivals, start, warmUp, stop) }()
	// An error that cuts the leg short ends its traffic before the daemons go.
	var tr *traffic
	defer func() {
		if tr == nil {
			close(stop)
			<-done
		}
	}()

	windowStart := start.Add(warmUp)
	time.Sleep(time.Until(windowStart))
	l.setup.warm = windowStart.Sub(tSeeded).Seconds()
	if l.a, err = c.readCounters(); err != nil {
		return nil, err
	}
	time.Sleep(time.Until(windowStart.Add(measure)))
	if l.b, err = c.readCounters(); err != nil {
		return nil, err
	}
	tr = <-done
	l.traffic = tr
	if tr.faultErr != nil {
		return nil, tr.faultErr
	}

	time.Sleep(settleAfter)
	views := make([]siteView, 0, len(roster))
	for _, id := range roster {
		sv, err := c.view(id)
		if err != nil {
			return nil, err
		}
		views = append(views, sv)
	}
	l.win = summarize(l.traffic, windowStart, measure)
	// A transaction's outcome can be disturbed from its due time until a
	// termination round after its master decided (slaves decide up to a
	// few T later), by a host stall or by a cut being posted meanwhile.
	// Without cuts there are no onsets, so only partition_open can blame one.
	lifetimes := make(map[uint64][2]int64, len(l.traffic.txns))
	for _, rec := range l.traffic.txns {
		if rec.outcome != "" {
			lifetimes[rec.tid] = [2]int64{rec.due, rec.decided + (10 * delayT).Microseconds()}
		}
	}
	l.verdict = judge(views, c.ledger, l.win.attempted, func(tid uint64) int {
		span, ok := lifetimes[tid]
		switch {
		case !ok:
			return unexplained
		// The cut first: its splits repeat seed for seed, stall or no stall,
		// and they are the ones the allowance caps.
		case caught(l.traffic.onsets, span[0], span[1]):
			return byOnset
		case stalledDuring(l.traffic.stalls, span[0], span[1]):
			return byStall
		}
		return unexplained
	})

	if traced {
		// SIGTERM, so each daemon exports its trace on the way out.
		c.net.Shutdown(5 * time.Second)
		byTID, err := readTraces(dir)
		if err != nil {
			return nil, fmt.Errorf("traced leg: %w", err)
		}
		l.stages = &stageStats{}
		for _, rec := range l.traffic.txns {
			if !rec.measured || rec.outcome != "commit" {
				continue
			}
			if st, ok := extractStages(byTID[rec.tid], rec.master, rec.due); ok {
				l.stages.add(st)
			} else {
				l.stages.incomplete++
			}
		}
	}
	return l, nil
}

// commitSlices is how many equal slices of the measured window commit
// latency is also kept by. The host's bad moments come in bursts, and the
// median over slices of a percentile shrugs off a burst that the
// percentile of the whole window would carry.
const commitSlices = 5

// window is what the generator saw of the measured transactions.
type window struct {
	attempted, failed, committed int
	commitMS, termMS, abortMS    sample // due -> master's decision
	commitBySlice                [commitSlices]sample
	caughtMS                     sample // the same, for transactions an onset caught
	submitUS, lateMS             sample
	polls                        int
}

// commitQuantile is the median, over the window's slices, of each
// slice's q-quantile of commit latency, with the size of the smallest
// slice it rests on.
func (w *window) commitQuantile(q float64) (ms float64, smallest int) {
	var per []float64
	for i := range w.commitBySlice {
		s := &w.commitBySlice[i]
		per = append(per, s.quantile(q))
		if i == 0 || s.n() < smallest {
			smallest = s.n()
		}
	}
	return median(per), smallest
}

// summarize gathers the measured transactions of a window that began at
// start and lasted length.
func summarize(tr *traffic, start time.Time, length time.Duration) window {
	var win window
	for _, rec := range tr.txns {
		if !rec.measured {
			continue
		}
		win.attempted++
		win.polls += rec.polls
		if rec.submitErr != nil || rec.outcome == "" {
			win.failed++
		}
		win.lateMS.add(float64(rec.submitStart-rec.due) / 1000)
		if rec.submitErr != nil {
			continue
		}
		win.submitUS.add(float64(rec.submitEnd - rec.submitStart))
		if rec.outcome == "" {
			continue
		}
		if rec.outcome == "commit" {
			win.committed++
		}
		ms := float64(rec.decided-rec.due) / 1000
		win.termMS.add(ms)
		if rec.outcome == "commit" {
			win.commitMS.add(ms)
			slice := (rec.due - micro(start)) * commitSlices / length.Microseconds()
			win.commitBySlice[min(max(slice, 0), commitSlices-1)].add(ms)
		} else {
			win.abortMS.add(ms)
		}
		if caught(tr.onsets, rec.due, rec.decided) {
			win.caughtMS.add(ms)
		}
	}
	return win
}

// endToEnd lists the end-to-end metrics in the order they are reported.
var endToEnd = []string{
	"committed_per_s", "commit_share", "commit_p50_ms", "commit_p95_ms", "onset_term_p90_ms", "setup_s",
}

var isEndToEnd = func() map[string]bool {
	set := make(map[string]bool, len(endToEnd))
	for _, name := range endToEnd {
		set[name] = true
	}
	return set
}()

// units names every metric the benchmark reports, with its unit: the
// end-to-end and per-layer names of BENCHMARK.json.
var units = map[string]string{
	"committed_per_s": "1/s", "commit_share": "share", "commit_p50_ms": "ms", "commit_p95_ms": "ms",
	"onset_term_p90_ms": "ms", "setup_s": "s",

	"api.submit_us_p50": "us", "api.submit_us_p95": "us", "api.poll_us_p50": "us", "api.polls_per_txn": "count",
	"node.admit_us_p50": "us", "node.slave_prepare_us_p50": "us", "node.master_turn_us_p50": "us",
	"node.slave_ack_us_p50": "us", "node.decide_us_p50": "us", "node.lock_hold_ms_p50": "ms",
	"node.stage_sum_ms": "ms",
	"wire.hop_ms_p50":   "ms", "wire.hop_ms_p95": "ms", "wire.hop_excess_us_p50": "us",
	"wire.msgs_per_commit": "count", "wire.bytes_per_commit": "bytes",
	"wire.bounced_per_s": "1/s", "wire.dropped_per_s": "1/s", "wire.codec_ns_per_msg": "ns",
	"wal.fsyncs_per_commit": "count", "wal.batch_occupancy": "count",
	"wal.fsync_us_p50": "us", "wal.fsync_us_p99": "us",
	"wal.append_prepare_us_p50": "us", "wal.append_decision_us_p50": "us",
	"engine.execute_us_p50": "us", "engine.commit_us_p50": "us", "engine.execute_mem_us_p50": "us",
	"engine.vote_no_per_s": "1/s", "engine.aborts_per_s": "1/s",
	"lock.conflicts_per_s": "1/s", "lock.conflict_share": "share", "lock.acquire_release_ns": "ns",
	"core.abort_term_ms_p50": "ms", "core.onset_term_ms_p50": "ms", "core.onset_caught_n": "count",
	"core.split_txns": "count", "core.undecided_at_drain": "count",
	"daemon.cpu_ms_per_commit": "ms", "daemon.cpu_cores": "cores", "daemon.rss_mb_end": "MB",
	"setup.spawn_s": "s", "setup.seed_s": "s", "setup.warm_s": "s",
	"gen.late_p99_ms": "ms", "gen.cpu_cores": "cores", "gen.commit_p99_ms": "ms",
	"trace.overhead_pct": "%",
}

// An attempt is disturbed when the daemons and the generator together
// used more than maxCores of the 2-core reference box, or the hypervisor
// gave more than maxSteal of the window's CPU time to other guests
// (0.1-0.3% in quiet runs; 3-13% in the spells that take commit_p95_ms
// from 43 to 57-79 ms).
const (
	maxCores = 1.8
	maxSteal = 0.02
)

// setupLegs is how many set-ups a run makes at least; set-up time is the
// median of the latest that many.
const setupLegs = 3

// retryFor is how long after its start a run may begin another attempt.
// The benchmark's driver allows one invocation 180 s.
const retryFor = 100 * time.Second

// runValid measures one run of one workload, and measures it again while
// an attempt was disturbed or failed outright (set-up misses its timers
// too when the host is slow): a bad spell of the host, most of which last
// a minute or two, should cost a re-measurement, not the run. When time
// runs out it reports the last attempt that got as far as a result, with
// a warning: the benchmark's driver takes a failed invocation for a broken
// benchmark, while one outlier in ten runs leaves its quartiles where
// they were. Only a run in which no attempt measured anything is an error.
func runValid(cfg config, w workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	begun := time.Now()
	r := &runner{cfg: cfg, w: w, seed: seed}
	var last *result
	for {
		res, err := r.attempt(measure, traced)
		if err == nil {
			return res, nil
		}
		if res != nil {
			last = res
		}
		if time.Since(begun) <= retryFor {
			fmt.Fprintln(os.Stderr, "e2e:", err, "- measuring again")
			continue
		}
		if last == nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "e2e:", err, "- out of time, reporting the last measured attempt all the same")
		return last, nil
	}
}

// attempt makes what set-up-only legs the run still lacks, then measures:
// the whole window untraced, or an untraced and a traced half. A disturbed
// attempt returns its result beside the error. Only the measuring legs are
// made again by the next attempt.
func (r *runner) attempt(measure time.Duration, traced bool) (*result, error) {
	type legPlan struct {
		measure time.Duration
		traced  bool
	}
	plan := []legPlan{{measure, false}}
	if traced {
		plan = []legPlan{{measure / 2, false}, {measure - measure/2, true}}
	}
	fail := func(err error) (*result, error) {
		return nil, fmt.Errorf("%s seed %d leg %d: %w", r.w.name, r.seed, r.booted-1, err)
	}
	for len(r.setups)+len(plan) < setupLegs {
		if _, err := r.leg(0, false); err != nil {
			return fail(err)
		}
	}
	var legs []*leg
	for _, p := range plan {
		l, err := r.leg(p.measure, p.traced)
		if err != nil {
			return fail(err)
		}
		legs = append(legs, l)
	}
	w, seed := r.w, r.seed

	// Set-up time: spawn and seed as the median of the latest set-ups
	// (an earlier attempt's were made in the spell that spoiled it), the
	// warm-up as this attempt's measuring leg had it.
	last := legs[len(legs)-1]
	m := make(map[string]float64)
	var setups, spawns, seeds []float64
	for _, s := range r.setups[len(r.setups)-setupLegs:] {
		setups = append(setups, s.spawn+s.seed)
		spawns = append(spawns, s.spawn)
		seeds = append(seeds, s.seed)
	}
	m["setup_s"] = median(setups) + last.setup.warm
	m["setup.spawn_s"] = median(spawns)
	m["setup.seed_s"] = median(seeds)
	m["setup.warm_s"] = last.setup.warm
	notes := []string{fmt.Sprintf("latest set-ups before their warm-up, in seconds: %.3f", setups)}

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	stalled := 0 // splits a host stall explains
	for k, l := range legs {
		i := r.booted - len(legs) + k
		res.Attempted += l.win.attempted
		res.Failed += l.win.failed
		for _, p := range l.verdict.problems {
			res.Correct = false
			notes = append(notes, fmt.Sprintf("INCORRECT (leg %d): %s", i, p))
		}
		for _, rec := range l.traffic.txns {
			switch {
			case !rec.measured:
			case rec.submitErr != nil:
				notes = append(notes, fmt.Sprintf("FAILED (leg %d): txn %d: submit to site %d: %v", i, rec.tid, rec.master, rec.submitErr))
			case rec.outcome == "":
				notes = append(notes, fmt.Sprintf("FAILED (leg %d): txn %d: undecided at site %d after %d polls (last poll error: %v)",
					i, rec.tid, rec.master, rec.polls, rec.pollErr))
			}
		}
		stalled += l.verdict.byStall
		if n := len(l.verdict.split); n > 0 {
			notes = append(notes, fmt.Sprintf("leg %d: %d split transactions (%d through a host stall, %d across a cut being posted), tids %v",
				i, n, l.verdict.byStall, l.verdict.byOnset, l.verdict.split))
		}
	}

	// The numbers come from the last leg: the whole window untraced, or
	// its traced half.
	notes = append(notes, windowMetrics(w, last, plan[len(plan)-1].measure, m)...)
	if traced {
		untraced, _ := legs[0].win.commitQuantile(0.50)
		m["trace.overhead_pct"] = 100 * (ratio(m["commit_p50_ms"], untraced) - 1)
		notes = append(notes, last.stages.metrics(m))
		microDir := filepath.Join(r.cfg.workdir, fmt.Sprintf("%s-%d-micro", w.name, seed))
		if err := os.MkdirAll(microDir, 0o755); err != nil {
			return nil, err
		}
		err := microLayers(microDir, schedule(w, seed, time.Second)[0], m)
		os.RemoveAll(microDir)
		if err != nil {
			return nil, err
		}
	}

	report(w, seed, traced, m, notes)
	for name, v := range m {
		if isEndToEnd[name] != traced {
			res.Metrics[name] = metric{Value: v, Unit: units[name]}
		}
	}
	disturbed := func(format string, args ...any) (*result, error) {
		return res, fmt.Errorf("%w: %s", errDisturbed, fmt.Sprintf(format, args...))
	}
	if stalled > 0 {
		return disturbed("%d transactions were decided differently on different sites while the host was stalled", stalled)
	}
	if cores := m["daemon.cpu_cores"] + m["gen.cpu_cores"]; cores > maxCores {
		return disturbed("daemons and generator used %.2f cores (limit %.1f)", cores, maxCores)
	}
	if late := m["gen.late_p99_ms"]; late > float64(delayT.Milliseconds()) {
		return disturbed("generator sent a hundredth of its arrivals more than T late (p99 %.1f ms, T = %s)", late, delayT)
	}
	if steal := stolen(last.a, last.b); steal > maxSteal {
		return disturbed("the hypervisor gave %.1f%% of the CPU to other guests (limit %.0f%%)", 100*steal, 100*maxSteal)
	}
	return res, nil
}

// windowMetrics fills m with everything one measured leg yields without
// a trace — the end-to-end metrics and the api, core, gen and counter
// based layer metrics — and returns notes on what the numbers rest on.
func windowMetrics(w workload, l *leg, length time.Duration, m map[string]float64) []string {
	win := &l.win
	m["committed_per_s"] = float64(win.committed) / length.Seconds()
	m["commit_share"] = ratio(float64(win.committed), float64(win.attempted))
	m["commit_p50_ms"], _ = win.commitQuantile(0.50)
	var p95Rests int
	m["commit_p95_ms"], p95Rests = win.commitQuantile(0.95)
	m["gen.commit_p99_ms"] = win.commitMS.quantile(0.99)
	// The paper's bounded wait: how long a transaction in flight at a cut
	// takes to terminate. Without cuts nothing is caught, and the same
	// statistic over every transaction is the no-fault reference.
	term := &win.termMS
	if w.cut {
		term = &win.caughtMS
	}
	m["onset_term_p90_ms"] = term.quantile(0.90)
	m["core.onset_term_ms_p50"] = win.caughtMS.quantile(0.50)
	m["core.onset_caught_n"] = float64(win.caughtMS.n())
	m["core.abort_term_ms_p50"] = win.abortMS.quantile(0.50)
	m["core.split_txns"] = float64(len(l.verdict.split))
	m["core.undecided_at_drain"] = float64(l.traffic.undecided + l.verdict.undecided)
	m["api.submit_us_p50"] = win.submitUS.quantile(0.50)
	m["api.submit_us_p95"] = win.submitUS.quantile(0.95)
	m["api.poll_us_p50"] = l.traffic.pollUS.quantile(0.50)
	m["api.polls_per_txn"] = ratio(float64(win.polls), float64(win.attempted))
	m["gen.late_p99_ms"] = win.lateMS.quantile(0.99)
	layerDeltas(l.a, l.b, m)

	var notes []string
	for _, c := range []struct {
		name string
		n    int
		q    float64
	}{
		{"commit_p95_ms", p95Rests, 0.95},
		{"gen.commit_p99_ms", win.commitMS.n(), 0.99},
		{"onset_term_p90_ms", term.n(), 0.90},
	} {
		if !supported(c.n, c.q) {
			notes = append(notes, fmt.Sprintf("%s rests on %d samples: fewer than %d lie beyond it (highest supported: p%g)",
				c.name, c.n, tailSamples, 100*highestSupported(c.n)))
		}
	}
	if m["lock.conflicts_per_s"] == 0 && m["engine.vote_no_per_s"] > 10 {
		notes = append(notes, "lock.* read 0 beside a stream of no-votes: the daemons' lock-failure counter is dead (bench/README.md, Findings)")
	}
	onsets := 0
	for _, o := range l.traffic.onsets {
		if o.begun >= micro(l.a.at) {
			onsets++
		}
	}
	var worst int64
	for _, s := range l.traffic.stalls {
		worst = max(worst, s.to-s.from)
	}
	return append(notes,
		fmt.Sprintf("samples: commit latency %d in %d slices, termination %d, caught by an onset %d (%d onsets)",
			win.commitMS.n(), commitSlices, term.n(), win.caughtMS.n(), onsets),
		fmt.Sprintf("host: %.2f%% of CPU time stolen by the hypervisor, %d stalls over %s, longest %d ms",
			100*stolen(l.a, l.b), len(l.traffic.stalls), stallAfter, worst/1000))
}

// report prints every metric gathered in this run by name and unit,
// end-to-end first.
func report(w workload, seed int64, traced bool, m map[string]float64, notes []string) {
	mode := "untraced"
	if traced {
		mode = "traced half"
	}
	fmt.Printf("== %s  seed %d  %s  (%d/s open loop, T = %s: every message is delayed %s-%s on purpose)\n",
		w.name, seed, mode, w.rate, delayT, delayT/4, delayT/2)
	fmt.Println("   " + w.why)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := isEndToEnd[names[i]], isEndToEnd[names[j]]; a != b {
			return a
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", name, m[name], units[name])
	}
	for _, n := range notes {
		fmt.Println("  " + n)
	}
}

// repeatRuns runs n seeds of one workload untraced and prints, for each
// end-to-end metric, min/median/max, the interquartile spread as a share
// of the median, and the bound BENCHMARK.json sets for it.
func repeatRuns(cfg config, w workload, seed int64, measure time.Duration, n int) error {
	bounds := readBounds("BENCHMARK.json")
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		res, err := runValid(cfg, w, seed+int64(i), measure, false)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s seed %d: incorrect", w.name, seed+int64(i))
		}
		for name, mv := range res.Metrics {
			values[name] = append(values[name], mv.Value)
		}
	}
	fmt.Printf("== %s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
	fmt.Printf("  %-20s %10s %10s %10s %9s %7s\n", "metric", "min", "median", "max", "iqr/med", "bound")
	for _, name := range endToEnd {
		s := sample{v: values[name]}
		med := median(values[name])
		spread := quartileSpread(values[name])
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.0f%%", 100*b)
		}
		fmt.Printf("  %-20s %10.3f %10.3f %10.3f %8.1f%% %7s\n",
			name, s.quantile(0), med, s.quantile(1), 100*spread, bound)
	}
	return nil
}

// readBounds returns the regression bound of each end-to-end metric in
// the benchmark's manifest; a missing or unreadable manifest only loses
// the bound column.
func readBounds(path string) map[string]float64 {
	var manifest struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := make(map[string]float64)
	raw, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(raw, &manifest) != nil {
		return out
	}
	for _, e := range manifest.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out
}
