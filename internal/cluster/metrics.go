package cluster

import (
	"sync"

	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
)

// clusterMetrics is the cluster's half of the observability layer: one
// obs.Registry pre-seeded with the full metric catalog (so the family
// set is identical on every backend — the parity the tests assert), plus
// the handles the cluster's own seams record through. Leaf packages
// (engine, wal, lock) are wired to the same registry at Open, so one
// Snapshot covers the whole process.
//
// A nil *clusterMetrics is fully inert; recordDecided nil-checks so the
// cluster calls it without branching.
type clusterMetrics struct {
	reg *obs.Registry

	// roundDecided is the submit→decided protocol round latency in
	// ticks, labelled with the protocol under test. The prepared edge is
	// not uniformly observable at the cluster layer — the termnode
	// daemon records phase="prepared" from inside the automaton — but
	// the family is pre-registered here so the name set stays equal.
	roundDecided *obs.Histogram
	// shardCommit is the per-shard submit→decided latency of committed
	// transactions, in ticks.
	shardCommit *obs.HistogramVec

	mu       sync.Mutex
	recorded map[proto.TxnID]bool
}

// newClusterMetrics builds the registry and resolves the cluster-seam
// handles once, keeping the record paths allocation-free.
func newClusterMetrics(protocol string) *clusterMetrics {
	r := obs.New()
	obs.RegisterBase(r)
	return &clusterMetrics{
		reg: r,
		roundDecided: r.Histogram(obs.MRoundLatency,
			obs.L("protocol", protocol), obs.L("phase", "decided")),
		shardCommit: r.NewHistogramVec(obs.MShardCommitLatency, "shard"),
		recorded:    make(map[proto.TxnID]bool),
	}
}

// recordDecided observes one transaction's terminal latency, exactly
// once per TID: submit→decided into the round histogram, and — for
// commits — into the per-shard commit-latency histogram. Latencies are
// in ticks on every backend (net converts wall time at the result
// boundary). Called from Wait and Metrics with settled results.
func (m *clusterMetrics) recordDecided(r *TxnResult) {
	if m == nil || r == nil {
		return
	}
	// One pass instead of Outcome()+Decided(): Decided delegates to
	// Blocked, which allocates and sorts per call — too heavy for a
	// sweep that runs over every transaction at each Wait.
	o := proto.None
	decided := int64(-1)
	for _, s := range r.Sites {
		if s.Outcome == proto.None {
			if s.Started && !s.Crashed {
				return // a live participant is still undecided
			}
			continue
		}
		if o == proto.None {
			o = s.Outcome
		}
		if int64(s.DecidedAt) > decided {
			decided = int64(s.DecidedAt)
		}
	}
	if o == proto.None || decided < 0 {
		return
	}
	m.mu.Lock()
	if m.recorded[r.TID] {
		m.mu.Unlock()
		return
	}
	m.recorded[r.TID] = true
	m.mu.Unlock()
	lat := decided - int64(r.startAt)
	if lat < 0 {
		lat = 0
	}
	m.roundDecided.Observe(lat)
	if o == proto.Commit {
		m.shardCommit.At(r.shard).Observe(lat)
	}
}

// payloadShard attributes a transaction body to its first data shard; 0
// without a directory or for a body with no data shards.
func payloadShard(d *placement.Directory, payload []byte) int {
	if d == nil {
		return 0
	}
	_, asg := d.Current()
	if shards := asg.DataShards(payload); len(shards) > 0 {
		return shards[0]
	}
	return 0
}

// recordDecidedAll sweeps settled results into the latency histograms.
// Cheap to call repeatedly: each TID records once.
func (c *Cluster) recordDecidedAll() {
	c.mu.Lock()
	m := c.metrics
	if m == nil {
		c.mu.Unlock()
		return
	}
	results := make([]*TxnResult, 0, len(c.order))
	for _, tid := range c.order {
		results = append(results, c.txns[tid])
	}
	c.mu.Unlock()
	for _, r := range results {
		m.recordDecided(r)
	}
}

// metricsProvider is implemented by backends whose runtime state lives
// in other processes (the net backend): Snapshots returns the remote
// registries' snapshots for merging into the cluster's own.
type metricsProvider interface {
	MetricsSnapshots() []obs.Snapshot
}

// Metrics returns a point-in-time snapshot of every metric the cluster
// and its wired participants recorded. The family name set is identical
// on every backend — the catalog is pre-registered at Open — and on the
// net backend the daemons' registries are merged in, so per-shard
// engine counters survive the process boundary. Stable after Wait;
// callable any time.
func (c *Cluster) Metrics() obs.Snapshot {
	c.mu.Lock()
	if c.metrics == nil {
		c.metrics = newClusterMetrics(c.cfg.Protocol.Name())
	}
	reg := c.metrics.reg
	c.mu.Unlock()
	c.recordDecidedAll()
	snap := reg.Snapshot()
	if mp, ok := c.backend.(metricsProvider); ok {
		for _, s := range mp.MetricsSnapshots() {
			snap.Merge(s)
		}
	}
	return snap
}
