package cluster

import (
	"fmt"
	"sync"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// RecoveryReport is one site's recovery as observed by the cluster: where
// on the timeline it ran, how long the replay + in-doubt resolution +
// catch-up took on the wall clock, and what it did.
type RecoveryReport struct {
	Site proto.SiteID
	// At is the timeline position of the recovery (the EvRecover time).
	At sim.Time
	// Wall is the wall-clock latency of the whole recovery — the
	// per-recovery resolution latency the E-series benchmark reports.
	Wall  time.Duration
	Stats recovery.Stats
	// Retry marks a heal-event re-inquiry: a previous recovery left
	// in-doubt transactions unresolved behind a partition, and this pass
	// resolved (some of) them when the boundary lifted — no replay, no
	// catch-up, just the inquiry round again.
	Retry bool
	// Err is non-nil when the replay itself failed (corrupt log).
	Err error
}

// String renders the report in one line.
func (r RecoveryReport) String() string {
	if r.Err != nil {
		return fmt.Sprintf("site %d recovery at t=%d failed: %v", r.Site, r.At, r.Err)
	}
	if r.Retry {
		return fmt.Sprintf("site %d heal retry at t=%d in %s: %s", r.Site, r.At, r.Wall, r.Stats)
	}
	return fmt.Sprintf("site %d recovered at t=%d in %s: %s", r.Site, r.At, r.Wall, r.Stats)
}

// recoveryEngine returns the site's database when durable recovery can
// rebuild it — a Participant that is the storage engine.
func recoveryEngine(cfg Config, site proto.SiteID) (*engine.Engine, bool) {
	e, ok := cfg.Participants[site].(*engine.Engine)
	return e, ok && e != nil
}

// buildRecoveryConfig is one site's recovery.Plan over its engine and the
// directory's current epoch; ok is false for a site without an engine.
func buildRecoveryConfig(cfg Config, site proto.SiteID, peers recovery.PeerClient) (recovery.Config, bool) {
	eng, ok := recoveryEngine(cfg, site)
	if !ok {
		return recovery.Config{}, false
	}
	var asg *placement.Assignment
	if d := cfg.Directory; d != nil {
		_, asg = d.Current()
	}
	return recovery.Plan(site, eng, peers, allSites(cfg.Sites), asg), true
}

// unresolved tracks, per site, the in-doubt transactions a recovery could
// not resolve; heal edges re-run the inquiry round for them. It locks: on
// the wall clock a heal and a restart run on timers of their own.
type unresolved struct {
	mu      sync.Mutex
	pending map[proto.SiteID][]engine.InDoubt
}

func (u *unresolved) get(site proto.SiteID) []engine.InDoubt {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pending[site]
}

func (u *unresolved) set(site proto.SiteID, pend []engine.InDoubt) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.pending == nil {
		u.pending = make(map[proto.SiteID][]engine.InDoubt)
	}
	u.pending[site] = pend
}

// recover executes one site's recovery, wraps it in a report and books
// what it left unresolved. ok is false for a site without an engine: it
// rejoins with amnesia.
func (u *unresolved) recover(cfg Config, site proto.SiteID, at sim.Time, peers recovery.PeerClient) (RecoveryReport, bool) {
	rc, ok := buildRecoveryConfig(cfg, site, peers)
	if !ok {
		return RecoveryReport{}, false
	}
	start := time.Now()
	st, err := recovery.Run(rc)
	u.set(site, st.Pending)
	return RecoveryReport{Site: site, At: at, Wall: time.Since(start), Stats: st, Err: err}, true
}

// retry re-runs the inquiry round at a heal edge for the given sites'
// unresolved in-doubt transactions, in the order given, and returns a
// report per pass that resolved something (the others would be noise).
func (u *unresolved) retry(cfg Config, sites []proto.SiteID, at sim.Time,
	peers func(proto.SiteID) recovery.PeerClient) []RecoveryReport {
	var reps []RecoveryReport
	for _, site := range sites {
		pend := u.get(site)
		if len(pend) == 0 {
			continue
		}
		if rc, ok := buildRecoveryConfig(cfg, site, peers(site)); ok {
			start := time.Now()
			st := recovery.Retry(rc, pend)
			u.set(site, st.Pending)
			if st.ResolvedCommit+st.ResolvedAbort > 0 {
				reps = append(reps, RecoveryReport{Site: site, At: at, Wall: time.Since(start), Stats: st, Retry: true})
			}
		}
	}
	return reps
}
