package cluster

import (
	"reflect"
	"testing"

	"termproto/internal/core"
	"termproto/internal/obs"
	"termproto/internal/proto"
)

// metricsRun drives the standard parity batch through a backend and
// returns the settled cluster plus its metrics snapshot (taken before
// Close so a net backend can still reach its daemons).
func metricsRun(t *testing.T, backend Backend) obs.Snapshot {
	t.Helper()
	c, _ := runBatch(t, backend, parityBatch())
	return c.Metrics()
}

// TestMetricsNamesParitySimLive: the family-name set of Cluster.Metrics()
// is the pre-registered catalog, identical across backends and
// independent of which code paths a run exercised — a failure-free batch
// on the simulator and the same batch through a partition on live daemons
// name the same families. Link lateness is a wall-clock measurement: the
// daemons' links record every crossing, the simulator registers the
// family and leaves it empty.
func TestMetricsNamesParitySimLive(t *testing.T) {
	simSnap := metricsRun(t, NewSimBackend(SimOptions{Seed: 11}))
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend:  netBackend(t),
		Schedule: Schedule{PartitionAt(2500, 3), HealAt(7000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SubmitBatch(parityBatch()); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	liveSnap := c.Metrics()
	if !reflect.DeepEqual(simSnap.Names(), liveSnap.Names()) {
		t.Fatalf("family names diverge:\nsim:  %v\nlive: %v", simSnap.Names(), liveSnap.Names())
	}
	if got := simSnap.Total(obs.MLinkCrossLate); got != 0 {
		t.Errorf("sim recorded %d link crossings, want the family empty", got)
	}
	if liveSnap.Total(obs.MLinkCrossLate) == 0 {
		t.Error("no link lateness observed on the live daemons")
	}
}

// TestNetMetricsParity runs the same batch against real termnode
// processes: the merged snapshot must expose exactly the same family
// names as the simulator's, and the daemon-side seams — per-shard engine
// counters, round latency, wire traffic — must have recorded actual
// traffic across the process boundary.
func TestNetMetricsParity(t *testing.T) {
	simSnap := metricsRun(t, NewSimBackend(SimOptions{Seed: 11}))
	netSnap := metricsRun(t, netBackend(t))
	if !reflect.DeepEqual(simSnap.Names(), netSnap.Names()) {
		t.Fatalf("family names diverge:\nsim: %v\nnet: %v", simSnap.Names(), netSnap.Names())
	}
	// 3 commits at each of 3 daemon replicas; the aborted txn counts only
	// at the 2 replicas that executed it (the scripted no-voter never
	// reaches its engine).
	if got := netSnap.Total(obs.MCommits); got != 9 {
		t.Errorf("commits total = %d, want 9", got)
	}
	if got := netSnap.Total(obs.MAborts); got != 2 {
		t.Errorf("aborts total = %d, want 2", got)
	}
	// Every replica observes its own decided edge (plus the cluster-level
	// record), and a yes-voting replica its prepared edge.
	if got := netSnap.Value(obs.MRoundLatency, obs.L("phase", "decided")); got < 4 {
		t.Errorf("decided round-latency count = %d, want >= 4", got)
	}
	if got := netSnap.Value(obs.MRoundLatency, obs.L("phase", "prepared")); got == 0 {
		t.Error("no prepared-phase round latencies from the daemons")
	}
	if got := netSnap.Total(obs.MShardCommitLatency); got < 3 {
		t.Errorf("shard commit-latency count = %d, want >= 3", got)
	}
	for _, dir := range []string{"sent", "recv"} {
		if netSnap.Value(obs.MNetFrames, obs.L("dir", dir)) == 0 {
			t.Errorf("no %s wire frames counted", dir)
		}
		if netSnap.Value(obs.MNetBytes, obs.L("dir", dir)) == 0 {
			t.Errorf("no %s wire bytes counted", dir)
		}
	}
	if netSnap.Total(obs.MWalRecords) == 0 {
		t.Error("no WAL records counted on the daemons")
	}
	if netSnap.Value(obs.MWalFsyncLatency) == 0 {
		t.Error("no WAL fsync latencies observed on the daemons")
	}
	if netSnap.Total(obs.MLinkCrossLate) == 0 {
		t.Error("no link lateness observed on the daemons")
	}
}

// TestMetricsRecordOnce: repeated Metrics() calls must not re-observe
// settled transactions — the histograms are per-TID, not per-snapshot.
func TestMetricsRecordOnce(t *testing.T) {
	c, _ := runBatch(t, NewSimBackend(SimOptions{Seed: 11}), parityBatch())
	first := c.Metrics().Value(obs.MRoundLatency, obs.L("phase", "decided"))
	second := c.Metrics().Value(obs.MRoundLatency, obs.L("phase", "decided"))
	if first != second {
		t.Fatalf("decided count grew across snapshots: %d then %d", first, second)
	}
	if first != 4 {
		t.Fatalf("decided count = %d, want 4", first)
	}
}

// TestMetricsAbortNotInCommitLatency: the per-shard commit-latency
// histogram is commits-only; the scripted abort must not appear.
func TestMetricsAbortNotInCommitLatency(t *testing.T) {
	c, rs := runBatch(t, NewSimBackend(SimOptions{Seed: 11}), parityBatch())
	aborts := 0
	for _, r := range rs {
		if r.Outcome() == proto.Abort {
			aborts++
		}
	}
	if aborts != 1 {
		t.Fatalf("scripted batch aborted %d txns, want 1", aborts)
	}
	snap := c.Metrics()
	decided := snap.Value(obs.MRoundLatency, obs.L("phase", "decided"))
	commits := snap.Total(obs.MShardCommitLatency)
	if commits != decided-int64(aborts) {
		t.Fatalf("commit-latency count %d, decided %d, aborts %d", commits, decided, aborts)
	}
}
