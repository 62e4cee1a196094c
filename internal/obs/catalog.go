package obs

// The metric catalog: every name the cluster emits, in one place, so
// the backends cannot drift apart. The backend-parity test asserts that
// Cluster.Metrics() returns exactly these families on sim and net;
// RegisterBase pre-registers them all, so the name
// set is a structural property of the registry, not a side effect of
// which code paths a particular run happened to exercise.
//
// Label scheme (stable; add labels, never rename):
//
//	shard    — shard index ("0" under full replication)
//	site     — site ID
//	protocol — protocol name (round-latency histograms)
//	phase    — protocol phase: "prepared" (a storage-engine site's yes
//	           vote became durable) and "decided" (the site decided)
//	outcome  — "commit" | "abort"; on lock waits "granted" | "expired" |
//	           "dropped"
//	dir      — "sent" | "recv" (wire traffic)
const (
	// Round latency per protocol phase at each site, in thousandths of T
	// since the site learned of the transaction, labels: protocol, phase.
	// (The name's "ticks" are simulator ticks at sim.DefaultT.)
	MRoundLatency = "termproto_round_latency_ticks"
	// Commit latency per shard at each site, in the same unit, label:
	// shard.
	MShardCommitLatency = "termproto_shard_commit_latency_ticks"
	// Engine decisions per shard, labels: shard (site on daemons).
	MCommits = "termproto_commits_total"
	MAborts  = "termproto_aborts_total"
	// Lock conflicts → no-votes (refused locks and escrow shortfalls pending
	// debits cause), label: shard.
	MLockFailures = "termproto_lock_failures_total"
	// Lock conflicts resolved by wounding the holder (a younger
	// transaction the site coordinates, aborted in w1), label: shard.
	MLockWounds = "termproto_lock_wounds_total"
	// Transactions a site table parked, holding no lock, behind a key
	// another transaction held, by how the wait ended, labels: shard,
	// outcome (granted: the keys freed in time; expired: the budget ran
	// out and the transaction went on to be refused; dropped: an abort or
	// the site's close ended it first).
	MLockWaits = "termproto_lock_waits_total"
	// WAL durability: fsync wall latency in microseconds, records made
	// durable and the Sync calls that took.
	MWalFsyncLatency = "termproto_wal_fsync_latency_us"
	MWalRecords      = "termproto_wal_records_total"
	MWalSyncs        = "termproto_wal_syncs_total"
	// Wire traffic, label: dir. Bytes/frames are transport-level: every
	// frame written to or read from a peer connection, including
	// bounced (return-to-sender) deliveries.
	MNetBytes  = "termproto_net_bytes_total"
	MNetFrames = "termproto_net_frames_total"
	// How long after the instant its link drew a message crossed, or a
	// bounced one returned, in microseconds: the sender's share of the
	// delay bound, recorded by the wall-clock links (empty on sim).
	MLinkCrossLate = "termproto_link_cross_late_us"
)

// catalog drives RegisterBase and the /metrics HELP strings.
var catalog = []struct {
	name string
	kind Kind
	help string
}{
	{MRoundLatency, KindHistogram, "Protocol round latency by phase, in thousandths of T since the site learned of the transaction."},
	{MShardCommitLatency, KindHistogram, "Commit latency per shard, in thousandths of T since the site learned of the transaction."},
	{MCommits, KindCounter, "Transactions committed by the engine."},
	{MAborts, KindCounter, "Transactions aborted by the engine."},
	{MLockFailures, KindCounter, "Lock conflicts voted no: a refused lock, or an escrow shortfall other holders' pending debits cause."},
	{MLockWounds, KindCounter, "Lock conflicts resolved by aborting the younger holder the site coordinates, still in w1."},
	{MLockWaits, KindCounter, "Transactions parked behind a held key, by how the wait ended: granted, expired or dropped."},
	{MWalFsyncLatency, KindHistogram, "WAL fsync wall latency in microseconds."},
	{MWalRecords, KindCounter, "WAL records reaching stable storage."},
	{MWalSyncs, KindCounter, "WAL sync syscalls issued."},
	{MNetBytes, KindCounter, "Wire bytes by direction."},
	{MNetFrames, KindCounter, "Wire frames by direction."},
	{MLinkCrossLate, KindHistogram, "Lateness of link crossings and bounce returns against their drawn instant, in microseconds."},
}

// RegisterBase pre-registers every catalog family (with help text) so
// a registry's family-name set is complete before any traffic flows.
// A daemon calls it for its registry, and Cluster.Metrics for the
// snapshot it merges the sites' registries into.
func RegisterBase(r *Registry) {
	if r == nil {
		return
	}
	r.seed(catalog)
}

// DB bundles the per-shard engine handles: resolved once when an
// engine is wired for observability, used allocation-free on the
// commit/abort/lock paths. Any field may be nil (that aspect off).
type DB struct {
	Commits      *CounterVec
	Aborts       *CounterVec
	LockFailures *CounterVec
	LockWounds   *CounterVec
	// LockWaits is indexed by WaitGranted, WaitExpired, WaitDropped.
	LockWaits [3]*CounterVec
}

// Lock-wait outcomes: the index into DB.LockWaits.
const (
	WaitGranted = iota
	WaitExpired
	WaitDropped
)

// waitOutcomes are the outcome labels of MLockWaits, by index.
var waitOutcomes = [3]string{"granted", "expired", "dropped"}

// NewDB resolves the engine handle bundle against a registry (nil
// registry → nil bundle, all recording off).
func NewDB(r *Registry) *DB {
	if r == nil {
		return nil
	}
	db := &DB{
		Commits:      r.NewCounterVec(MCommits, "shard"),
		Aborts:       r.NewCounterVec(MAborts, "shard"),
		LockFailures: r.NewCounterVec(MLockFailures, "shard"),
		LockWounds:   r.NewCounterVec(MLockWounds, "shard"),
	}
	for i, o := range waitOutcomes {
		db.LockWaits[i] = r.NewCounterVec(MLockWaits, "shard", L("outcome", o))
	}
	return db
}
