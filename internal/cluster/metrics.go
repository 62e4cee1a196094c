package cluster

import "termproto/internal/obs"

// Metrics returns a point-in-time snapshot of every metric the cluster's
// sites recorded: the merge of the backend's per-site registries — the
// simulator's in this process, the daemons' read over their admin APIs —
// into the full catalog, so the family name set is the same on every
// backend. Stable after Wait; callable any time.
func (c *Cluster) Metrics() obs.Snapshot {
	base := obs.New()
	obs.RegisterBase(base)
	snap := base.Snapshot()
	for _, s := range c.backend.MetricsSnapshots() {
		snap.Merge(s)
	}
	return snap
}
