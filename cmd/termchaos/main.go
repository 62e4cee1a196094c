// Command termchaos generates, runs, and machine-checks randomized fault
// schedules against the termination protocol suite. Every scenario derives
// deterministically from a uint64 seed, so any failure this driver prints
// reproduces exactly with `termchaos -replay <seed>`.
//
// Modes:
//
//	termchaos -n 2000                  # run a 2000-seed corpus on the simulator
//	termchaos -n 3 -backend net        # sample net-compatible seeds on real processes
//	termchaos -replay 1337             # re-run one seed and dump its evidence
//	termchaos -replay 2001 -family timeout  # ... as the timeout family draws it
//	termchaos -check trace.jsonl       # offline-check an exported trace file
//
// Exit status 1 means at least one invariant violation (or an unexpected
// run error); 0 means the whole corpus is clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"termproto/internal/chaos"
	"termproto/internal/check"
	"termproto/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes its report to stdout and its
// errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("termchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n           = fs.Int("n", 1000, "number of seeds to run (starting at -seed)")
		seed        = fs.Uint64("seed", 1, "first seed of the corpus")
		backend     = fs.String("backend", "sim", "sim (deterministic) or net (real termnode processes)")
		family      = fs.String("family", "", "restrict the corpus to one family (happy-path, abort-heavy, timeout, stress, migration-under-partition)")
		replay      = fs.Uint64("replay", 0, "re-run this one seed and dump its scenario, violations, and per-txn history")
		checkFile   = fs.String("check", "", "offline-check this trace JSONL file instead of running scenarios")
		skipBounds  = fs.Bool("skip-bounds", false, "with -check: skip the §6 bound rule (wall-clock traces)")
		artifactDir = fs.String("artifact-dir", "", "write failing seeds' traces and violation reports here")
		workdir     = fs.String("workdir", "", "with -backend net: localnet workspace root (default: temp dirs)")
		verbose     = fs.Bool("v", false, "print every scenario as it runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *family != "" && !slices.Contains(chaos.Families(), chaos.Family(*family)) {
		fmt.Fprintf(stderr, "termchaos: unknown family %q (known: %v)\n", *family, chaos.Families())
		return 2
	}

	switch {
	case *checkFile != "":
		return checkTraceFile(stdout, stderr, *checkFile, *skipBounds)
	case *replay != 0:
		return replaySeed(stdout, stderr, *replay, *backend, *family, *workdir)
	default:
		return runCorpus(stdout, stderr, *seed, *n, *backend, *family, *workdir, *artifactDir, *verbose)
	}
}

// scenarioFor resolves a seed under the optional family restriction.
func scenarioFor(seed uint64, family string) chaos.Scenario {
	if family == "" {
		return chaos.FromSeed(seed)
	}
	return chaos.FromSeedIn(seed, chaos.Family(family))
}

func runCorpus(stdout, stderr io.Writer, base uint64, n int, backend, family, workdir, artifactDir string, verbose bool) int {
	start := time.Now()
	perFamily := map[chaos.Family]int{}
	var failed []uint64
	ran, violations, txns := 0, 0, 0
	for s := base; s < base+uint64(n); s++ {
		sc := scenarioFor(s, family)
		if backend == "net" && !sc.NetCompatible() {
			continue // sharded/membership scenarios stay on the simulator
		}
		wd := workdir
		if wd != "" {
			wd = filepath.Join(workdir, fmt.Sprintf("seed-%d", s))
		}
		if verbose {
			fmt.Fprintf(stdout, "running %s\n", sc)
		}
		r, vs, err := chaos.RunOn(sc, backend, wd)
		if err != nil {
			fmt.Fprintf(stderr, "termchaos: seed %d: %v\n", s, err)
			failed = append(failed, s)
			continue
		}
		ran++
		perFamily[sc.Family]++
		txns += len(r.Results)
		if len(vs) > 0 {
			violations += len(vs)
			failed = append(failed, s)
			fmt.Fprintf(stderr, "termchaos: seed %d (%s): %d violations\n", s, sc, len(vs))
			for _, v := range vs {
				fmt.Fprintf(stderr, "  %s\n", v)
			}
			writeArtifacts(artifactDir, s, r, vs)
		}
	}
	fmt.Fprintf(stdout, "termchaos: %d scenarios, %d transactions, %d violations in %s (%s backend)\n",
		ran, txns, violations, time.Since(start).Round(time.Millisecond), backend)
	for _, f := range chaos.Families() {
		if perFamily[f] > 0 {
			fmt.Fprintf(stdout, "  %-26s %d\n", f, perFamily[f])
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "termchaos: FAILING SEEDS: %v\n", failed)
		hint := "termchaos -replay <seed>"
		if family != "" {
			hint += " -family " + family
		}
		fmt.Fprintf(stderr, "termchaos: reproduce any of them with: %s\n", hint)
		return 1
	}
	return 0
}

func replaySeed(stdout, stderr io.Writer, seed uint64, backend, family, workdir string) int {
	sc := scenarioFor(seed, family)
	fmt.Fprintf(stdout, "scenario: %s\n", sc)
	for _, ev := range sc.Schedule {
		fmt.Fprintf(stdout, "  schedule: %+v\n", ev)
	}
	r, vs, err := chaos.RunOn(sc, backend, workdir)
	if err != nil {
		fmt.Fprintf(stderr, "termchaos: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d transactions, %d trace events\n", len(r.Results), len(r.Events))
	for _, res := range r.Results {
		fmt.Fprintf(stdout, "  txn %d: master=%d outcome=%v consistent=%v blocked=%v\n",
			res.TID, res.Master, res.Outcome(), res.Consistent(), res.Blocked())
	}
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "no violations")
		return 0
	}
	for _, v := range vs {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
		for _, e := range v.Events {
			fmt.Fprintf(stdout, "    %s\n", e)
		}
	}
	return 1
}

func checkTraceFile(stdout, stderr io.Writer, path string, skipBounds bool) int {
	events, err := trace.ReadJSONLFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "termchaos: %v\n", err)
		return 2
	}
	vs := check.Check(check.Input{Events: events, SkipBounds: skipBounds})
	fmt.Fprintf(stdout, "termchaos: %d events, %d violations\n", len(events), len(vs))
	for _, v := range vs {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
	}
	if len(vs) > 0 {
		return 1
	}
	return 0
}

// writeArtifacts exports a failing seed's full trace and violation report
// so CI can upload them; best-effort (the seed alone already reproduces).
func writeArtifacts(dir string, seed uint64, r *chaos.Result, vs []check.Violation) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	_ = trace.WriteJSONLFile(filepath.Join(dir, fmt.Sprintf("seed-%d.trace.jsonl", seed)), r.Events)
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("seed-%d.violations.txt", seed)))
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s\n\n", r.Scenario)
	for _, v := range vs {
		fmt.Fprintf(f, "%s\n", v)
		for _, e := range v.Events {
			fmt.Fprintf(f, "    %s\n", e)
		}
		fmt.Fprintln(f)
	}
}
