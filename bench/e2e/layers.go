package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"termproto/internal/obs"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100 on
// every Linux ABI.
const clockTick = 100

// counters is every cumulative count the daemons export and the process
// table holds, summed over sites at one instant. A layer metric is the
// difference of two of these across the measured window.
type counters struct {
	at time.Time

	voteYes, voteNo, commits, aborts   uint64 // /stats: engine
	bounced, dropped                   uint64 // /stats: transport
	walSyncs, walBatches, walBatchRecs uint64 // /stats: WAL

	framesSent, bytesSent uint64   // termproto_net_*_total{dir=sent}
	lockFails             uint64   // termproto_lock_failures_total
	fsyncBuckets          []uint64 // termproto_wal_fsync_latency_us

	daemonCPU float64 // seconds, user+system, all daemons
	daemonRSS float64 // MB, all daemons
	genCPU    float64 // seconds, user+system, this process

	hostSteal, hostTicks uint64 // /proc/stat: ticks the hypervisor gave to others, and all ticks
}

func (c *cluster) readCounters() (counters, error) {
	out := counters{at: time.Now(), fsyncBuckets: make([]uint64, obs.NumBuckets)}
	for _, id := range roster {
		st, err := c.clients[id].Stats()
		if err != nil {
			return out, fmt.Errorf("site %d /stats: %w", id, err)
		}
		out.voteYes += st.VoteYes
		out.voteNo += st.VoteNo
		out.commits += st.Commits
		out.aborts += st.Aborts
		out.bounced += st.Bounced
		out.dropped += st.Dropped
		out.walSyncs += st.WalSyncs
		out.walBatches += st.WalBatches
		out.walBatchRecs += st.WalBatchedRecords

		snap, err := c.clients[id].Metrics()
		if err != nil {
			return out, fmt.Errorf("site %d /metricsjson: %w", id, err)
		}
		sent := obs.L("dir", "sent")
		out.framesSent += uint64(snap.Value(obs.MNetFrames, sent))
		out.bytesSent += uint64(snap.Value(obs.MNetBytes, sent))
		out.lockFails += uint64(snap.Total(obs.MLockFailures))
		if f := snap.Family(obs.MWalFsyncLatency); f != nil {
			for _, s := range f.Series {
				for i, n := range s.Buckets {
					if i < len(out.fsyncBuckets) {
						out.fsyncBuckets[i] += n
					}
				}
			}
		}
	}
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	for _, pid := range c.pids {
		ps, err := readProcStat(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return out, err
		}
		out.daemonCPU += float64(ps.utime+ps.stime) / clockTick
		out.daemonRSS += float64(ps.rssPages) * pageMB
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return out, err
	}
	out.genCPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return out, err
	}
	out.hostSteal, out.hostTicks, err = parseHostCPU(string(raw))
	return out, err
}

// parseHostCPU reads the first line of /proc/stat ("cpu user nice system
// idle iowait irq softirq steal ..."): the steal ticks and the sum of all
// eight.
func parseHostCPU(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	for i, field := range f[1:9] {
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stolen is the share of the host's CPU time between a and b that the
// hypervisor gave to other guests.
func stolen(a, b counters) float64 {
	return ratio(float64(b.hostSteal-a.hostSteal), float64(b.hostTicks-a.hostTicks))
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// ratio is a/b, 0 when b is 0: a window in which the denominator never
// moved has no meaningful per-unit cost.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerDeltas turns the counters at the two ends of the measured window
// into the per-layer metrics that come from daemon exports.
func layerDeltas(a, b counters, m map[string]float64) {
	secs := b.at.Sub(a.at).Seconds()
	d := func(x, y uint64) float64 { return float64(y - x) }
	siteCommits := d(a.commits, b.commits)
	txnCommits := siteCommits / numSites
	executes := d(a.voteYes, b.voteYes) + d(a.voteNo, b.voteNo)

	m["wire.msgs_per_commit"] = ratio(d(a.framesSent, b.framesSent), txnCommits)
	m["wire.bytes_per_commit"] = ratio(d(a.bytesSent, b.bytesSent), txnCommits)
	m["wire.bounced_per_s"] = ratio(d(a.bounced, b.bounced), secs)
	m["wire.dropped_per_s"] = ratio(d(a.dropped, b.dropped), secs)

	m["wal.fsyncs_per_commit"] = ratio(d(a.walSyncs, b.walSyncs), siteCommits)
	m["wal.batch_occupancy"] = ratio(d(a.walBatchRecs, b.walBatchRecs), d(a.walBatches, b.walBatches))
	fsync := obs.SeriesSnap{Buckets: make([]uint64, len(b.fsyncBuckets))}
	for i := range fsync.Buckets {
		fsync.Buckets[i] = b.fsyncBuckets[i] - a.fsyncBuckets[i]
		fsync.Count += fsync.Buckets[i]
	}
	window := obs.Snapshot{Families: []obs.FamilySnap{{
		Name: obs.MWalFsyncLatency, Kind: obs.KindHistogram, Series: []obs.SeriesSnap{fsync},
	}}}
	m["wal.fsync_us_p50"] = window.Quantile(obs.MWalFsyncLatency, 0.50)
	m["wal.fsync_us_p99"] = window.Quantile(obs.MWalFsyncLatency, 0.99)

	m["engine.vote_no_per_s"] = ratio(d(a.voteNo, b.voteNo), secs)
	m["engine.aborts_per_s"] = ratio(d(a.aborts, b.aborts), secs)

	m["lock.conflicts_per_s"] = ratio(d(a.lockFails, b.lockFails), secs)
	m["lock.conflict_share"] = ratio(d(a.lockFails, b.lockFails), executes)

	cpu := b.daemonCPU - a.daemonCPU
	m["daemon.cpu_cores"] = ratio(cpu, secs)
	m["daemon.cpu_ms_per_commit"] = ratio(cpu*1000, txnCommits)
	m["daemon.rss_mb_end"] = b.daemonRSS
	m["gen.cpu_cores"] = ratio(b.genCPU-a.genCPU, secs)
}
