package cluster

import (
	"fmt"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/site"
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
	Done sim.Time
	// Stats is what the pass did; its Err also says why a site did not
	// come back.
	site.Stats
}

// String renders the report in one line.
func (r RecoveryReport) String() string {
	if r.Err != "" {
		return fmt.Sprintf("site %d recovery at t=%d failed: %s", r.Site, r.At, r.Err)
	}
	return fmt.Sprintf("site %d recovered at t=%d done t=%d: %s", r.Site, r.At, r.Done, r.Stats)
}
