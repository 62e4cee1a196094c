package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter handle and one vector from
// many goroutines; the final value must be exact. Run under -race this
// is also the data-race proof for the record path.
func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter(MCommits, L("shard", "0"))
	vec := r.NewCounterVec(MAborts, "shard")
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				vec.At(i % 7).Add(2)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	snap := r.Snapshot()
	if got := snap.Total(MAborts); got != workers*perWorker*2 {
		t.Fatalf("vector total = %d, want %d", got, workers*perWorker*2)
	}
	// Same name+labels resolve to the same series.
	r.Counter(MCommits, L("shard", "0")).Add(5)
	if got := r.Counter(MCommits, L("shard", "0")).Value(); got != workers*perWorker+5 {
		t.Fatalf("re-resolved counter = %d, want %d", got, workers*perWorker+5)
	}
}

// TestHistogramConcurrent records from parallel goroutines and checks
// count, sum, and bucket-total conservation.
func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram(MRoundLatency, L("phase", "decided"))
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	f := snap.Family(MRoundLatency)
	if f == nil || len(f.Series) != 1 {
		t.Fatalf("family missing or wrong series count: %+v", f)
	}
	ss := f.Series[0]
	if ss.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", ss.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, n := range ss.Buckets {
		bucketTotal += n
	}
	if bucketTotal != ss.Count {
		t.Fatalf("buckets hold %d observations, count says %d", bucketTotal, ss.Count)
	}
	wantSum := int64(workers) * (999*1000/2 + 1000) // sum of 1..1000 per worker
	if ss.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", ss.Sum, wantSum)
	}
}

// TestQuantile checks the interpolated estimate stays within the
// guaranteed factor-of-two bucket resolution around known quantiles.
func TestQuantile(t *testing.T) {
	r := New()
	h := r.Histogram(MRoundLatency, L("phase", "decided"))
	for v := int64(1); v <= 10000; v++ {
		h.Observe(v)
	}
	snap := r.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900},
	} {
		got := snap.Quantile(MRoundLatency, tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.0f = %.0f, want within 2x of %.0f", tc.q*100, got, tc.want)
		}
	}
	if got := snap.Quantile("absent_family", 0.5); got != 0 {
		t.Errorf("absent family quantile = %v, want 0", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10},
		{math.MaxInt64, NumBuckets - 1},
	} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestMerge folds two snapshots — one with an extra family and an
// extra series — and checks counters and histograms add.
func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter(MCommits, L("shard", "0")).Add(3)
	b.Counter(MCommits, L("shard", "0")).Add(4)
	b.Counter(MCommits, L("shard", "1")).Add(7)
	b.Counter(MNetFrames, L("dir", "sent")).Add(9)
	for i := int64(1); i <= 4; i++ {
		a.Histogram(MWalFsyncLatency).Observe(i)
		b.Histogram(MWalFsyncLatency).Observe(i * 100)
	}
	snap := a.Snapshot()
	snap.Merge(b.Snapshot())
	if got := snap.Value(MCommits, L("shard", "0")); got != 7 {
		t.Errorf("merged shard 0 commits = %d, want 7", got)
	}
	if got := snap.Value(MCommits, L("shard", "1")); got != 7 {
		t.Errorf("merged shard 1 commits = %d, want 7", got)
	}
	if got := snap.Value(MNetFrames, L("dir", "sent")); got != 9 {
		t.Errorf("merged new-family counter = %d, want 9", got)
	}
	f := snap.Family(MWalFsyncLatency)
	if f == nil || f.Series[0].Count != 8 {
		t.Fatalf("merged histogram count: %+v", f)
	}
	if f.Series[0].Sum != (1+2+3+4)+(100+200+300+400) {
		t.Errorf("merged histogram sum = %d", f.Series[0].Sum)
	}
}

// TestSnapshotJSONRoundTrip: the daemon ships snapshots as JSON; a
// round-trip must preserve every value the net backend merges.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	RegisterBase(r)
	r.Counter(MCommits, L("shard", "2")).Add(11)
	r.Histogram(MWalFsyncLatency).Observe(250)
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Value(MCommits, L("shard", "2")), int64(11); got != want {
		t.Errorf("round-tripped counter = %d, want %d", got, want)
	}
	if got := back.Family(MWalFsyncLatency); got == nil || got.Series[0].Count != 1 {
		t.Errorf("round-tripped histogram lost observations: %+v", got)
	}
	if len(back.Names()) != len(snap.Names()) {
		t.Errorf("round trip changed family count: %d != %d", len(back.Names()), len(snap.Names()))
	}
}

// TestRegisterBaseNames: the pre-registered name set is complete and
// stable — this is what makes backend name parity structural.
func TestRegisterBaseNames(t *testing.T) {
	a, b := New(), New()
	RegisterBase(a)
	RegisterBase(b)
	// Traffic on one registry must not change its family-name set.
	a.Counter(MCommits, L("shard", "0")).Inc()
	a.Histogram(MRoundLatency, L("phase", "decided"), L("protocol", "2pc")).Observe(100)
	an, bn := a.Snapshot().Names(), b.Snapshot().Names()
	if len(an) != len(bn) {
		t.Fatalf("name sets diverge: %v vs %v", an, bn)
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("name sets diverge at %d: %q vs %q", i, an[i], bn[i])
		}
	}
}

// TestWritePrometheus checks the text exposition: TYPE lines, labeled
// series, cumulative histogram buckets with le, _sum/_count.
func TestWritePrometheus(t *testing.T) {
	r := New()
	RegisterBase(r)
	r.Counter(MCommits, L("shard", "0")).Add(42)
	h := r.Histogram(MShardCommitLatency, L("shard", "0"))
	h.Observe(3)
	h.Observe(700)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE termproto_commits_total counter",
		`termproto_commits_total{shard="0"} 42`,
		"# TYPE termproto_shard_commit_latency_ticks histogram",
		`termproto_shard_commit_latency_ticks_bucket{shard="0",le="+Inf"} 2`,
		`termproto_shard_commit_latency_ticks_sum{shard="0"} 703`,
		`termproto_shard_commit_latency_ticks_count{shard="0"} 2`,
		"# HELP termproto_wal_fsync_latency_us",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus text missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative: each bucket line's value must be monotonically
	// non-decreasing down the le ladder for any one series.
	if strings.Contains(out, "le=\"4\"} 1\n") && !strings.Contains(out, "le=\"1024\"} 2") {
		t.Errorf("histogram buckets not cumulative:\n%s", out)
	}
}

// TestKindMismatchPanics: re-registering a name as a different kind is
// a catalog bug and must fail loudly.
func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := New()
	r.Counter("m")
	r.Histogram("m")
}

// TestNilSafety: a nil registry and nil handles must be inert — the
// "observability off" configuration costs nothing and crashes nothing.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("x").Observe(1)
	r.NewCounterVec("x", "shard").At(3).Add(1)
	r.NewHistogramVec("x", "shard").At(3).Observe(1)
	RegisterBase(r)
	var db *DB
	_ = db // NewDB(nil) path
	if NewDB(nil) != nil {
		t.Fatal("NewDB(nil) should be nil")
	}
	if n := r.Snapshot().Names(); len(n) != 0 {
		t.Fatalf("nil registry snapshot has families: %v", n)
	}
}

// The record-path allocation contract: Counter.Add, Histogram.Observe
// and hot Vec.At lookups must all run at 0 allocs/op — these sit on
// the wire send path and the engine commit path.

func BenchmarkCounterAdd(b *testing.B) {
	r := New()
	c := r.Counter(MNetFrames, L("dir", "sent"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram(MRoundLatency, L("phase", "decided"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}

func BenchmarkCounterVecAt(b *testing.B) {
	r := New()
	vec := r.NewCounterVec(MCommits, "shard")
	vec.At(7) // pre-touch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.At(i & 7).Add(1)
	}
}

func TestRecordPathZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter(MNetFrames, L("dir", "sent"))
	h := r.Histogram(MRoundLatency, L("phase", "decided"))
	vec := r.NewCounterVec(MCommits, "shard")
	vec.At(3)
	if n := testing.AllocsPerRun(200, func() {
		c.Add(1)
		h.Observe(123)
		vec.At(3).Inc()
	}); n != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", n)
	}
}
