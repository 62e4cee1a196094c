package cluster

import (
	"fmt"

	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// RecoveryReport is one site restart's recovery pass as observed by the
// cluster: where on the timeline it started and finished, and what it did.
// An in-doubt transaction resolved after the pass — by an answer that
// landed late, or after a heal — shows in the site's Txn view and trace,
// not here.
type RecoveryReport struct {
	Site proto.SiteID
	// At is the timeline position the recovery started at (the EvRecover
	// time).
	At sim.Time
	// Done is the timeline position it finished at, round trips later.
	Done  sim.Time
	Stats recovery.Stats
	// Err is non-nil when the replay itself failed (corrupt log).
	Err error
}

// String renders the report in one line.
func (r RecoveryReport) String() string {
	if r.Err != nil {
		return fmt.Sprintf("site %d recovery at t=%d failed: %v", r.Site, r.At, r.Err)
	}
	return fmt.Sprintf("site %d recovered at t=%d done t=%d: %s", r.Site, r.At, r.Done, r.Stats)
}
