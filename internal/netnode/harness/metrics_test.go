package harness

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"termproto/internal/obs"
	"termproto/internal/proto"
)

// TestLocalnetMetricsEndpoint drives one committed transaction through
// real termnode processes, then scrapes a daemon's GET /metrics the way
// Prometheus would: the full catalog must be present as HELP/TYPE
// blocks (pre-registered families included), the commit must show up in
// the per-shard counters and the commit-latency histogram, and the
// structured /metricsjson view must agree with the text one. The pprof
// index rides the same admin port.
func TestLocalnetMetricsEndpoint(t *testing.T) {
	l := startNet(t, 3)
	submit(t, l, 1, 1, "mk", "mv")
	if o := waitOutcome(t, l, 1, l.Sites()); o != "commit" {
		t.Fatalf("outcome = %s, want commit", o)
	}

	addr := l.APIAddrs()[proto.SiteID(1)]
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %s, read err %v", resp.Status, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body := string(raw)
	// Every catalog family is exposed — including ones this run produced
	// no traffic for (e.g. no lock conflicts): the name set is structural.
	for _, want := range []string{
		"# TYPE " + obs.MShardCommitLatency + " histogram",
		"# TYPE " + obs.MCommits + " counter",
		"# TYPE " + obs.MLockFailures + " counter",
		"# TYPE " + obs.MWalFsyncLatency + " histogram",
		"# TYPE " + obs.MNetFrames + " counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The committed transaction's traffic.
	for _, want := range []string{
		obs.MCommits + `{shard="0"} 1`,
		obs.MShardCommitLatency + `_count{shard="0"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing series %q", want)
		}
	}

	snap, err := l.Client(1).Metrics()
	if err != nil {
		t.Fatalf("GET /metricsjson: %v", err)
	}
	if got := snap.Value(obs.MCommits, obs.L("shard", "0")); got != 1 {
		t.Errorf("json snapshot commits = %d, want 1", got)
	}
	if got := snap.Value(obs.MShardCommitLatency, obs.L("shard", "0")); got != 1 {
		t.Errorf("json snapshot commit-latency count = %d, want 1", got)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %s", resp.Status)
	}
}

// TestLocalnetLinkLatenessOnMetrics: three daemons under a transient
// partition — the master's link must report how late its crossings and
// bounce returns were (termproto_link_cross_late_us), the in-daemon witness
// of the benchmark's wire.hop_excess_us_p50.
func TestLocalnetLinkLatenessOnMetrics(t *testing.T) {
	l := startNet(t, 3)
	if err := l.Partition(3); err != nil {
		t.Fatalf("partition: %v", err)
	}
	submit(t, l, 1, 1, "lk", "lv")
	waitOutcome(t, l, 1, []proto.SiteID{1, 2}) // site 3 is cut off: its xact bounced
	if err := l.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	snap, err := l.Client(1).Metrics()
	if err != nil {
		t.Fatalf("GET /metricsjson: %v", err)
	}
	if got := snap.Value(obs.MLinkCrossLate); got == 0 {
		t.Errorf("%s count = 0 at the master after a partitioned transaction", obs.MLinkCrossLate)
	}
}
