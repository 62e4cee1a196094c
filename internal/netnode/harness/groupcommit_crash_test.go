package harness

import (
	"fmt"
	"testing"
	"time"

	"termproto/internal/proto"
)

// TestLocalnetCrashDuringGroupCommit SIGKILLs a participant while a
// burst of concurrent transactions is mid-flight. Each WAL append is one
// Write and one Sync of its own, not a share of a flush group, so the
// kill lands between appends — or inside one, leaving the victim's log
// with a partially written tail. The survivors must decide every
// transaction on their own; the restarted site must scan its WAL
// cleanly (a torn tail is truncated, never mis-parsed), resolve anything
// in-doubt through a real inquire round, and converge on the survivors'
// outcomes and keyspace.
func TestLocalnetCrashDuringGroupCommit(t *testing.T) {
	l := startNet(t, 3)

	const txns = 10
	for i := 1; i <= txns; i++ {
		submit(t, l, uint64(i), 1, fmt.Sprintf("gc%d", i), "v")
	}
	time.Sleep(harnessT / 2) // mid-burst: xacts delivered, appends in flight
	if err := l.Kill(3); err != nil {
		t.Fatalf("kill site 3: %v", err)
	}

	// The survivors decide everything without the victim.
	survivors := []proto.SiteID{1, 2}
	outcomes := make(map[uint64]string, txns)
	for i := 1; i <= txns; i++ {
		outcomes[uint64(i)] = waitOutcome(t, l, uint64(i), survivors)
	}

	if err := l.Restart(3); err != nil {
		t.Fatalf("restart site 3: %v", err)
	}
	if err := l.WaitHealthy(15 * time.Second); err != nil {
		t.Fatalf("site 3 never recovered: %v", err)
	}
	rec, err := l.Client(3).Recovery()
	if err != nil {
		t.Fatalf("recovery report: %v", err)
	}
	if !rec.Ran || rec.Unresolved != 0 {
		t.Fatalf("recovery = %+v, want a clean run with nothing unresolved", rec)
	}

	// The restarted site must agree with the survivors on every
	// transaction — waitOutcome across all three sites enforces both
	// decision and agreement.
	for i := 1; i <= txns; i++ {
		got := waitOutcome(t, l, uint64(i), l.Sites())
		if got != outcomes[uint64(i)] {
			t.Errorf("txn %d: post-restart outcome %q, survivors decided %q", i, got, outcomes[uint64(i)])
		}
	}
	snap, _, err := l.Client(3).Snapshot()
	if err != nil {
		t.Fatalf("snapshot site 3: %v", err)
	}
	for i := 1; i <= txns; i++ {
		key := fmt.Sprintf("gc%d", i)
		got := string(snap[key])
		switch outcomes[uint64(i)] {
		case "commit":
			if got != "v" {
				t.Errorf("site 3: committed key %q = %q, want \"v\"", key, got)
			}
		case "abort":
			if got != "" {
				t.Errorf("site 3: aborted key %q = %q, want absent", key, got)
			}
		}
	}
}
