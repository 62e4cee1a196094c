package cluster

import (
	"fmt"

	"termproto/internal/db/engine"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// RecoveryReport is one site's recovery as observed by the cluster: where
// on the timeline it started and finished, and what it did.
type RecoveryReport struct {
	Site proto.SiteID
	// At is the timeline position the recovery started at (the EvRecover
	// time, or the heal edge of a retry).
	At sim.Time
	// Done is the timeline position it finished at, round trips later.
	Done  sim.Time
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
		return fmt.Sprintf("site %d heal retry at t=%d done t=%d: %s", r.Site, r.At, r.Done, r.Stats)
	}
	return fmt.Sprintf("site %d recovered at t=%d done t=%d: %s", r.Site, r.At, r.Done, r.Stats)
}

// recoveryEngine returns the site's database when durable recovery can
// rebuild it — a Participant that is the storage engine.
func recoveryEngine(cfg Config, site proto.SiteID) (*engine.Engine, bool) {
	e, ok := cfg.Participants[site].(*engine.Engine)
	return e, ok && e != nil
}
