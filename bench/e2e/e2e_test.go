package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/trace"
)

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true},  // rank 189: ten samples lie beyond it
		{199, 0.95, false}, // rank 189: nine
		{100, 0.90, true},
		{99, 0.90, false},
		{21, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {21, 0.50}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for q, want := range map[float64]float64{0: 1, 0.5: 50, 0.9: 90, 0.95: 95, 0.99: 99, 1: 100} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := (&sample{}).quantile(0.5); got != 0 {
		t.Errorf("empty sample quantile = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// Reference values from Python's statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{5, 1}, (6.0 - 0.0) / 3.0},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %g, want %g", c.v, got, c.want)
		}
	}
}

func TestCommitQuantileShrugsOffABurst(t *testing.T) {
	var w window
	for i := range w.commitBySlice {
		for ms := 0; ms < 100; ms++ {
			w.commitBySlice[i].add(float64(ms))
		}
	}
	// The host has a bad few seconds: one slice is short and all slow.
	w.commitBySlice[2] = sample{}
	for i := 0; i < 50; i++ {
		w.commitBySlice[2].add(1000)
	}
	if got, smallest := w.commitQuantile(0.95); got != 94 || smallest != 50 {
		t.Errorf("commitQuantile(0.95) = %g on a smallest slice of %d, want 94 on 50", got, smallest)
	}
}

func TestOnsetSubset(t *testing.T) {
	o := onset{begun: 1000, applied: 1003}
	for _, c := range []struct {
		name         string
		due, decided int64
		want         bool
	}{
		{"decided before the cut began", 900, 1000, false},
		{"in flight across the onset", 900, 1001, true},
		{"due while blocklists were being posted", 1002, 1100, true},
		{"due once the cut was in place", 1003, 1100, false},
		{"long gone", 100, 200, false},
	} {
		if got := o.caughtBy(c.due, c.decided); got != c.want {
			t.Errorf("%s: caughtBy(%d, %d) = %v, want %v", c.name, c.due, c.decided, got, c.want)
		}
	}
	onsets := []onset{{1000, 1003}, {2000, 2004}}
	if !caught(onsets, 1990, 2050) || caught(onsets, 1500, 1600) {
		t.Error("caught does not consider every onset")
	}
}

func TestStalledDuring(t *testing.T) {
	stalls := []stall{{from: 100, to: 150}}
	for _, c := range []struct {
		from, to int64
		want     bool
	}{{0, 99, false}, {0, 100, true}, {120, 130, true}, {150, 200, true}, {151, 200, false}} {
		if got := stalledDuring(stalls, c.from, c.to); got != c.want {
			t.Errorf("stalledDuring(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestExtractStagesFromFixture(t *testing.T) {
	events, err := trace.ReadJSONLFile("testdata/one_txn.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := extractStages(events, 1, 1_000_000)
	if !ok {
		t.Fatal("fixture holds a complete commit round, extractStages disagrees")
	}
	sortInts := func(xs []int64) []int64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs
	}
	want := stages{
		admit:        1700,
		slavePrepare: []int64{500, 600},
		masterTurn:   30,
		slaveAck:     []int64{20, 30},
		decide:       500,
		lockHold:     []int64{34400, 34600},
		hops:         []int64{6000, 7000, 7000, 8000, 8000, 8000, 9000, 9000},
	}
	st.slavePrepare, st.slaveAck = sortInts(st.slavePrepare), sortInts(st.slaveAck)
	st.lockHold, st.hops = sortInts(st.lockHold), sortInts(st.hops)
	if !reflect.DeepEqual(st, want) {
		t.Errorf("stages = %+v\nwant     %+v", st, want)
	}

	var ss stageStats
	ss.add(st)
	// admit + 4 hops at the median hop + slave prepare + turn + ack + decide.
	if got, want := ss.sumP50(), 1700.0+4*8000+500+30+20+500; got != want {
		t.Errorf("sumP50 = %g, want %g", got, want)
	}

	// Without the master's decision, or with a message missing, the round
	// is incomplete.
	var noDecide, noAck []trace.Event
	for _, e := range events {
		if !(e.Kind == trace.Decide && e.Site == 1) {
			noDecide = append(noDecide, e)
		}
		if !(e.Kind == trace.Deliver && e.MsgKind == kAck && e.From == 3) {
			noAck = append(noAck, e)
		}
	}
	if _, ok := extractStages(noDecide, 1, 1_000_000); ok {
		t.Error("a round with no master decision counted as complete")
	}
	if _, ok := extractStages(noAck, 1, 1_000_000); ok {
		t.Error("a round with an undelivered ack counted as complete")
	}
}

func TestScheduleComesFromTheSeedAlone(t *testing.T) {
	hot, err := workloadByName("hot_open")
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(hot, 42, 3*time.Second)
	if len(a) != 3*hot.rate {
		t.Fatalf("%d arrivals, want %d", len(a), 3*hot.rate)
	}
	if !reflect.DeepEqual(a, schedule(hot, 42, 3*time.Second)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, schedule(hot, 43, 3*time.Second)) {
		t.Error("different seeds, same schedule")
	}
	for i, x := range a {
		if x.from == x.to || x.from >= hot.hotKeys || x.to >= hot.hotKeys {
			t.Fatalf("arrival %d moves %d -> %d, want two distinct accounts below %d", i, x.from, x.to, hot.hotKeys)
		}
		if x.master != 1+i%numSites {
			t.Fatalf("arrival %d mastered at %d, want rotation", i, x.master)
		}
		if want := time.Duration(i) * time.Second / time.Duration(hot.rate); x.dueOffset != want {
			t.Fatalf("arrival %d due at %s, want %s", i, x.dueOffset, want)
		}
	}
	busy, _ := workloadByName("uniform_busy")
	if got := len(schedule(busy, 1, 8*time.Second)); got != 8*busy.rate {
		t.Errorf("%d arrivals in 8 s at %d/s", got, busy.rate)
	}
	if at := schedule(busy, 1, 8*time.Second)[2*busy.rate].dueOffset; at != 2*time.Second {
		t.Errorf("arrival %d is due at %s, want exactly 2s", 2*busy.rate, at)
	}
	uniform, _ := workloadByName("uniform_open")
	wide := false
	for _, x := range schedule(uniform, 42, time.Second) {
		wide = wide || x.from >= hot.hotKeys
	}
	if !wide {
		t.Error("uniform workload never left the hot keys")
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCutSchedule(t *testing.T) {
	cuts := cutSchedule(3 * time.Second)
	want := []cutWindow{
		{300 * time.Millisecond, 700 * time.Millisecond},
		{1300 * time.Millisecond, 1700 * time.Millisecond},
		{2300 * time.Millisecond, 2700 * time.Millisecond},
	}
	if !reflect.DeepEqual(cuts, want) {
		t.Errorf("cuts = %v, want %v", cuts, want)
	}
	if got := cutSchedule(2600 * time.Millisecond); len(got) != 2 {
		t.Errorf("a cut that would heal after the end was scheduled: %v", got)
	}
}

func TestParseProcStat(t *testing.T) {
	line := "4242 (term node) x) S 77 4242 1 0 -1 4194560 500 0 0 0 120 30 0 0 20 0 9 0 100 200000 1234 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ps, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	want := procStat{pid: 4242, ppid: 77, comm: "term node) x", utime: 120, stime: 30, rssPages: 1234}
	if ps != want {
		t.Errorf("parsed %+v, want %+v", ps, want)
	}
	for _, bad := range []string{"", "12 no-parens S 1", "12 (x) S 1 2"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	steal, total, err := parseHostCPU("cpu  100 1 50 800 20 0 9 20 5 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || steal != 20 || total != 1000 {
		t.Errorf("steal %d of %d ticks (%v), want 20 of 1000: guest time is already inside user", steal, total, err)
	}
	a, b := counters{hostSteal: 20, hostTicks: 1000}, counters{hostSteal: 60, hostTicks: 5000}
	if got := stolen(a, b); got != 0.01 {
		t.Errorf("stolen = %g, want 0.01", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3", "intr 1 2 3 4 5 6 7 8 9", "cpu 1 2 3 4 5 6 7 x 9"} {
		if _, _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) accepted", bad)
		}
	}
}

// settled builds the three sites' views after committing the given
// transfers of a two-transaction ledger everywhere.
func settled(outcome map[uint64]string) ([]siteView, map[uint64][]engine.Op) {
	ledger := map[uint64][]engine.Op{}
	var puts []engine.Op
	for i := 0; i < numAccounts; i++ {
		puts = append(puts, engine.Op{Kind: engine.OpPut, Key: accountKey(i), Value: engine.EncodeInt(seedBalance)})
	}
	ledger[1] = puts
	ledger[2] = arrival{from: 0, to: 1}.ops()
	ledger[3] = arrival{from: 2, to: 3}.ops()
	var views []siteView
	for _, id := range roster {
		sv := siteView{id: id, outcomes: map[uint64]string{1: "commit"}, data: map[string][]byte{}}
		for tid, o := range outcome {
			sv.outcomes[tid] = o
		}
		for key, v := range replay(ledger, sv.outcomes) {
			sv.data[key] = engine.EncodeInt(v)
		}
		views = append(views, sv)
	}
	return views, ledger
}

func TestJudge(t *testing.T) {
	none := func(uint64) int { return unexplained }
	blame := func(why int) func(uint64) int {
		return func(tid uint64) int {
			if tid == 2 {
				return why
			}
			return unexplained
		}
	}

	views, ledger := settled(map[uint64]string{2: "commit", 3: "abort"})
	if v := judge(views, ledger, 2, none); len(v.problems) > 0 {
		t.Errorf("consistent cluster judged incorrect: %v", v.problems)
	}

	// A site whose balances are not what its own commits produce.
	views, ledger = settled(map[uint64]string{2: "commit", 3: "abort"})
	views[1].data[accountKey(5)] = engine.EncodeInt(seedBalance + 1)
	if v := judge(views, ledger, 2, none); len(v.problems) == 0 {
		t.Error("a minted unit went unnoticed")
	}

	// One site aborts what the others committed: every site is still
	// self-consistent, but they disagree.
	views, ledger = settled(map[uint64]string{2: "commit", 3: "abort"})
	lone, _ := settled(map[uint64]string{2: "abort", 3: "abort"})
	views[2] = lone[2]
	v := judge(views, ledger, 2, none)
	if len(v.problems) == 0 || !reflect.DeepEqual(v.split, []uint64{2}) {
		t.Errorf("unexplained split: problems %v, split %v", v.problems, v.split)
	}
	if v := judge(views, ledger, 100, blame(byStall)); len(v.problems) > 0 || v.byStall != 1 {
		t.Errorf("split through a host stall: problems %v, byStall %d", v.problems, v.byStall)
	}
	// An excused split leaves only its own keys out of the snapshot comparison.
	views[2].data[accountKey(5)] = engine.EncodeInt(seedBalance + 1)
	views[2].data[accountKey(6)] = engine.EncodeInt(seedBalance - 1)
	v = judge(views, ledger, 100, blame(byStall))
	if !slices.ContainsFunc(v.problems, func(p string) bool { return strings.Contains(p, "snapshot differs") }) {
		t.Errorf("snapshots diverging beside an excused split went uncompared: %v", v.problems)
	}
	lone, _ = settled(map[uint64]string{2: "abort", 3: "abort"})
	views[2] = lone[2]
	if v := judge(views, ledger, 100, blame(byOnset)); len(v.problems) > 0 || v.byOnset != 1 {
		t.Errorf("one split in 100 across a cut being posted: problems %v, byOnset %d", v.problems, v.byOnset)
	}
	if v := judge(views, ledger, 99, blame(byOnset)); len(v.problems) == 0 {
		t.Error("one split in 99 across a cut being posted is over the allowance")
	}

	// A participant that never decided.
	views, ledger = settled(map[uint64]string{2: "commit", 3: "abort"})
	views[0].outcomes[3] = "none"
	if v := judge(views, ledger, 2, none); v.undecided != 1 || len(v.problems) == 0 {
		t.Errorf("undecided participant: undecided %d, problems %v", v.undecided, v.problems)
	}
}

// The manifest and the program must name the same metrics and workloads.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no manifest beside the module:", err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest has %d workloads, program %d", len(manifest.Workloads), len(workloads))
	}
	for _, w := range manifest.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	seen := make(map[string]bool)
	for _, m := range manifest.EndToEnd {
		seen[m.Name] = true
		if !isEndToEnd[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not the program's (%q)", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range manifest.PerLayer {
		seen[m.Name] = true
		if isEndToEnd[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s (%s) is not the program's (%q)", m.Name, m.Unit, units[m.Name])
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("program reports %s, manifest does not list it", name)
		}
	}
}
