package cluster

import (
	"fmt"
	"strings"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// keyOnShardOf returns a key whose shard replica set contains the given
// site.
func keyOnShardOf(t *testing.T, asg *placement.Assignment, site proto.SiteID, taken map[string]bool) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		if taken[key] {
			continue
		}
		for _, id := range asg.Replicas(asg.ShardOf(key)) {
			if id == site {
				taken[key] = true
				return key
			}
		}
	}
	t.Fatalf("no key routed to site %d", site)
	return ""
}

// TestNetParityShardedPlacement runs the same batch under the same static
// sharded directory through the simulator and through real termnode
// processes: outcomes must agree per transaction, and on the process
// backend each daemon — told its assignment via -placement — must hold
// exactly the shards it replicates, nothing else.
func TestNetParityShardedPlacement(t *testing.T) {
	const shards = 4
	mkDir := func() *placement.Directory {
		return placement.NewDirectory(mustAssignment(t, shards, 2, 1, 2, 3))
	}
	asg := mustAssignment(t, shards, 2, 1, 2, 3)

	taken := map[string]bool{}
	keyA := keyOnShardOf(t, asg, 1, taken)
	keyB := keyOnShardOf(t, asg, 3, taken)
	keyNo := keyOnShardOf(t, asg, 2, taken) // scripted no-vote at a replica
	mk := func(key string) []byte {
		return engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
	}
	batch := []Txn{
		{Payload: mk(keyA)},
		{At: sim.Time(sim.DefaultT / 2), Payload: mk(keyB)},
		{At: sim.Time(sim.DefaultT), Payload: mk(keyNo), Votes: NoAt(2)},
	}

	run := func(backend Backend) (*Cluster, []*TxnResult) {
		c, err := Open(Config{
			Sites: 3, Protocol: core.Protocol{TransientFix: true},
			Backend: backend, Directory: mkDir(),
		})
		if err != nil {
			t.Fatalf("open %s: %v", backend.Name(), err)
		}
		t.Cleanup(func() { c.Close() })
		rs, err := c.SubmitBatch(batch)
		if err != nil {
			t.Fatalf("submit %s: %v", backend.Name(), err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("wait %s: %v", backend.Name(), err)
		}
		mustVerify(t, c)
		return c, rs
	}

	_, simRS := run(NewSimBackend(SimOptions{Seed: 11}))
	nb := netBackend(t)
	_, netRS := run(nb)

	for i := range simRS {
		so, no := simRS[i].Outcome(), netRS[i].Outcome()
		if so != no {
			t.Errorf("txn %d: sim=%s net=%s", simRS[i].TID, so, no)
		}
		// Sharded routing is part of the parity contract: both backends
		// resolved the same replica set for the same payload.
		if sp, np := fmt.Sprint(simRS[i].Participants), fmt.Sprint(netRS[i].Participants); sp != np {
			t.Errorf("txn %d participants: sim=%s net=%s", simRS[i].TID, sp, np)
		}
	}

	// Each daemon holds exactly its shards: committed keys appear at
	// their replicas and nowhere else, and every node reports epoch 0.
	snaps := nb.state().snaps
	if len(snaps) != 3 {
		t.Fatalf("snapshots from %d/3 nodes", len(snaps))
	}
	hosted := func(id int, key string) bool { return asg.Hosts(proto.SiteID(id), key) }
	for i, key := range []string{keyA, keyB} {
		if !netRS[i].Committed() {
			continue // a fault-free run commits these; outcome parity already checked
		}
		for id, snap := range snaps {
			got, have := snap[key]
			if hosted(id, key) && (!have || string(got) != "v") {
				t.Errorf("site %d should host %q, has %q", id, key, got)
			}
			if !hosted(id, key) && have {
				t.Errorf("site %d holds %q outside its shards", id, key)
			}
		}
	}
	for id, snap := range snaps {
		if _, ok := snap[keyNo]; ok {
			t.Errorf("site %d holds key of aborted txn", id)
		}
		dto, err := nb.net.Client(proto.SiteID(id)).Stats()
		if err != nil || dto.Epoch != 0 {
			t.Errorf("site %d epoch = %d (%v), want 0", id, dto.Epoch, err)
		}
	}
}

// TestNetShardedRestartRecoversEpochFromWAL is the PR's durability
// acceptance check on the process backend: commit sharded traffic, SIGKILL
// a node, restart it over its surviving workspace — the node must come
// back serving its placement epoch from its own WAL (the reserved-range
// record written at boot), not from operator re-configuration, and its
// hosted keys must survive with it.
func TestNetShardedRestartRecoversEpochFromWAL(t *testing.T) {
	const shards = 4
	asg := mustAssignment(t, shards, 2, 1, 2, 3)
	victim := proto.SiteID(1)

	taken := map[string]bool{}
	keyV := keyOnShardOf(t, asg, victim, taken)
	var keyOther string
	for {
		keyOther = keyOnShardOf(t, asg, 2, taken)
		if !asg.Hosts(victim, keyOther) {
			break
		}
	}
	mk := func(key string) []byte {
		return engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
	}

	nb := netBackend(t)
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: nb, Directory: placement.NewDirectory(asg),
		Schedule: Schedule{
			CrashAt(sim.Time(4*sim.DefaultT), victim),
			RecoverAt(sim.Time(8*sim.DefaultT), victim),
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	// Pre-crash traffic on a shard the victim hosts, post-recovery
	// traffic on a shard it does not (so the submission never races the
	// restart).
	r1, err := c.Submit(Txn{Payload: mk(keyV)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r2, err := c.Submit(Txn{Payload: mk(keyOther), At: sim.Time(12 * sim.DefaultT)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !r1.Committed() || !r2.Committed() {
		t.Fatalf("outcomes: pre-crash=%v post-recovery=%v, want commits", r1.Outcome(), r2.Outcome())
	}
	recs := c.Recoveries()
	if len(recs) != 1 || recs[0].Site != victim || recs[0].Err != nil {
		t.Fatalf("recoveries = %+v, want one clean recovery of site %d", recs, victim)
	}

	// The restarted daemon resolved its epoch from the WAL's reserved
	// records — the log says so explicitly — and reports it over the API.
	tail := nb.net.LogTail(victim, 400)
	if !strings.Contains(tail, "recovered from WAL") {
		t.Fatalf("site %d log has no WAL placement recovery:\n%s", victim, tail)
	}
	dto, err := nb.net.Client(victim).Stats()
	if err != nil || dto.Epoch != 0 {
		t.Fatalf("site %d epoch after restart = %d (%v), want 0", victim, dto.Epoch, err)
	}
	// Its hosted key survived the SIGKILL via its own WAL replay.
	snap, _, err := nb.net.Client(victim).Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if string(snap[keyV]) != "v" {
		t.Fatalf("site %d lost hosted key %q across restart: %q", victim, keyV, snap[keyV])
	}
	if _, ok := snap[keyOther]; ok {
		t.Fatalf("site %d adopted key %q outside its shards", victim, keyOther)
	}
	if _, ok := snap[placement.EpochKey(0)]; !ok {
		t.Fatalf("site %d snapshot missing the epoch-0 directory record", victim)
	}
}
