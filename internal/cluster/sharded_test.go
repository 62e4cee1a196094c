package cluster

import (
	"fmt"
	"slices"
	"testing"

	"termproto/internal/core"
	"termproto/internal/placement"
	"termproto/internal/proto"
)

func mustArithmetic(t *testing.T, shards, rf, sites int) *placement.Assignment {
	t.Helper()
	asg, err := placement.Arithmetic(shards, rf, sites)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

// replicaUnion is the ascending union of the replica sets of the shards
// holding keys — a transaction's expected participant set.
func replicaUnion(asg *placement.Assignment, keys ...string) []proto.SiteID {
	var out []proto.SiteID
	for _, key := range keys {
		for _, id := range asg.Replicas(asg.ShardOf(key)) {
			if !containsSite(out, id) {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// The cluster's shard map is a placement.Arithmetic ring behind a
// Directory. Bad layouts are refused when the ring is built, and a ring
// naming sites the cluster does not have is refused by Open.
func TestShardMapValidation(t *testing.T) {
	for name, args := range map[string][3]int{
		"zeroShards": {0, 2, 4},
		"zeroRF":     {4, 0, 4},
		"rfTooBig":   {4, 5, 4},
		"oneSite":    {4, 2, 1},
	} {
		if _, err := placement.Arithmetic(args[0], args[1], args[2]); err == nil {
			t.Errorf("%s: Arithmetic(%v) accepted", name, args)
		}
	}
	// RF=1 is legal: single-replica shards commit through the local fast
	// path instead of a protocol round.
	c, err := Open(Config{
		Sites:     4,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: placement.NewDirectory(mustArithmetic(t, 4, 1, 4)),
	})
	if err != nil {
		t.Fatalf("rf=1 rejected: %v", err)
	}
	c.Close()
	if _, err := Open(Config{
		Sites:     4,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: placement.NewDirectory(mustArithmetic(t, 4, 2, 6)),
	}); err == nil {
		t.Error("directory over sites 1..6 accepted by a 4-site cluster")
	}
}

func TestShardMapPlacement(t *testing.T) {
	asg := mustArithmetic(t, 8, 3, 6)
	for s := 0; s < asg.Shards(); s++ {
		reps := asg.Replicas(s)
		if len(reps) != 3 {
			t.Fatalf("shard %d: %d replicas", s, len(reps))
		}
		if reps[0] != asg.Primary(s) {
			t.Fatalf("shard %d: primary %d not first in %v", s, asg.Primary(s), reps)
		}
		seen := map[proto.SiteID]bool{}
		for _, id := range reps {
			if int(id) < 1 || int(id) > 6 || seen[id] {
				t.Fatalf("shard %d: bad replica set %v", s, reps)
			}
			seen[id] = true
		}
	}
	// Placement is deterministic and Hosts agrees with Replicas.
	for _, key := range []string{"acct/0", "acct/7", "x", ""} {
		s := asg.ShardOf(key)
		if s != asg.ShardOf(key) {
			t.Fatalf("ShardOf(%q) not stable", key)
		}
		hosted := 0
		for site := 1; site <= 6; site++ {
			if asg.Hosts(proto.SiteID(site), key) {
				hosted++
			}
		}
		if hosted != 3 {
			t.Fatalf("key %q hosted at %d sites, want 3", key, hosted)
		}
	}
	// A two-key body's participants are the ascending union of the two
	// keys' replica sets.
	a, b := "acct/0", "acct/5"
	union := map[proto.SiteID]bool{}
	for _, id := range asg.Replicas(asg.ShardOf(a)) {
		union[id] = true
	}
	for _, id := range asg.Replicas(asg.ShardOf(b)) {
		union[id] = true
	}
	got := asg.ParticipantsFor(transfer(0, 5, 1))
	if len(got) != len(union) {
		t.Fatalf("ParticipantsFor = %v, union has %d members", got, len(union))
	}
	for i, id := range got {
		if !union[id] {
			t.Fatalf("ParticipantsFor member %d not in union %v", id, got)
		}
		if i > 0 && got[i-1] >= id {
			t.Fatalf("ParticipantsFor not ascending: %v", got)
		}
	}
}

// Submit derives a transaction's participants from its payload's keys;
// key-less and undecodable payloads fall back to broadcast.
func TestShardMapParticipantsFor(t *testing.T) {
	const sites = 8
	asg := mustArithmetic(t, 4, 2, sites)
	payload := transfer(0, 1, 5)
	want := replicaUnion(asg, "acct/0", "acct/1")
	if got := asg.ParticipantsFor(payload); !slices.Equal(got, want) {
		t.Fatalf("ParticipantsFor = %v, want %v", got, want)
	}
	if ids := asg.ParticipantsFor(nil); ids != nil {
		t.Fatalf("nil payload → %v, want nil", ids)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	if ids := asg.ParticipantsFor(garbage); ids != nil {
		t.Fatalf("garbage payload → %v, want nil", ids)
	}

	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: placement.NewDirectory(asg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name    string
		payload []byte
		want    []proto.SiteID
	}{
		{"transfer", payload, want},
		{"nil payload", nil, allSites(sites)},
		{"garbage payload", garbage, allSites(sites)},
	} {
		r, err := c.Submit(Txn{Payload: tc.payload, At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Participants, tc.want) {
			t.Fatalf("%s: participants %v, want %v", tc.name, r.Participants, tc.want)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// The acceptance property: with Shards > 1 and ReplicationFactor < Sites,
// automata are instantiated only at a transaction's participant sites.
func TestShardedPlacementSpawnsOnlyParticipants(t *testing.T) {
	const sites = 6
	asg := mustArithmetic(t, 6, 2, sites)
	sb := NewSimBackend(SimOptions{})
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: placement.NewDirectory(asg),
		Backend:   sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := make(map[proto.SiteID]int)
	var rs []*TxnResult
	for i := 0; i < 12; i++ {
		payload := transfer(i, i+3, 1)
		r, err := c.Submit(Txn{Payload: payload, At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		expect := replicaUnion(asg, fmt.Sprintf("acct/%d", i), fmt.Sprintf("acct/%d", i+3))
		if !slices.Equal(r.Participants, expect) {
			t.Fatalf("txn %d participants %v, want %v", r.TID, r.Participants, expect)
		}
		if len(r.Participants) >= sites {
			t.Fatalf("txn %d participants %v cover the whole cluster — not sharded", r.TID, r.Participants)
		}
		if !containsSite(r.Participants, r.Master) {
			t.Fatalf("txn %d master %d outside participants %v", r.TID, r.Master, r.Participants)
		}
		for _, id := range r.Participants {
			want[id]++
		}
		rs = append(rs, r)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sb.AutomataSpawned()
	for site := 1; site <= sites; site++ {
		id := proto.SiteID(site)
		if got[id] != want[id] {
			t.Fatalf("site %d spawned %d automata, want %d (spawned=%v want=%v)",
				site, got[id], want[id], got, want)
		}
	}
	for _, r := range rs {
		if !r.Decided() || !r.Consistent() {
			t.Fatalf("txn %d: decided=%v consistent=%v", r.TID, r.Decided(), r.Consistent())
		}
		// The result records outcomes only for participants.
		if len(r.Sites) != len(r.Participants) {
			t.Fatalf("txn %d: %d site outcomes for %d participants", r.TID, len(r.Sites), len(r.Participants))
		}
	}
	mustVerify(t, c)
}

// Cross-shard transfers: the multi-participant case. Both shards' replica
// groups converge, and sites outside the groups never see the data.
func TestShardedCrossShardTransfers(t *testing.T) {
	const sites, accounts = 8, 16
	asg := mustArithmetic(t, 8, 3, sites)
	d := placement.NewDirectory(asg)
	engs := directoryEngines(d, sites, accounts, 1_000)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
		Schedule:  Schedule{TransientPartitionAt(3000, 9000, 7, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	crossShard := 0
	for i := 0; i < 20; i++ {
		from, to := i%accounts, (i*5+3)%accounts
		if to == from {
			to = (to + 1) % accounts
		}
		r, err := c.Submit(Txn{Payload: transfer(from, to, 7), At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Participants) > asg.ReplicationFactor() {
			crossShard++
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if crossShard == 0 {
		t.Fatal("no cross-shard transfers in the mix")
	}
	mustVerify(t, c)
	st := c.Stats()
	if st.Inconsistent != 0 || st.Blocked != 0 || st.Committed == 0 {
		t.Fatalf("stats: %v", st)
	}
	// Money is conserved per shard group: sum each account at its primary.
	var total int64
	for a := 0; a < accounts; a++ {
		key := fmt.Sprintf("acct/%d", a)
		total += engs[asg.Primary(asg.ShardOf(key))].GetInt(key)
	}
	if total != accounts*1_000 {
		t.Fatalf("total %d, want %d", total, accounts*1_000)
	}
	// Non-replicas hold nothing for a key they do not host.
	for a := 0; a < accounts; a++ {
		key := fmt.Sprintf("acct/%d", a)
		for site := 1; site <= sites; site++ {
			id := proto.SiteID(site)
			if asg.Hosts(id, key) {
				continue
			}
			if _, ok := engs[id].Get(key); ok {
				t.Fatalf("site %d holds foreign key %q", site, key)
			}
		}
	}
}

// An explicitly named master outside the replica sets joins the
// participant set — the coordinator is always a participant.
func TestShardedExplicitMasterJoins(t *testing.T) {
	const sites = 6
	asg := mustArithmetic(t, 6, 2, sites)
	c, err := Open(Config{Sites: sites, Protocol: core.Protocol{TransientFix: true}, Directory: placement.NewDirectory(asg)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := transfer(0, 0+1, 1)
	derived := asg.ParticipantsFor(payload)
	var outsider proto.SiteID
	for s := 1; s <= sites; s++ {
		if !containsSite(derived, proto.SiteID(s)) {
			outsider = proto.SiteID(s)
			break
		}
	}
	if outsider == 0 {
		t.Skip("payload touches every site")
	}
	r, err := c.Submit(Txn{Master: outsider, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !containsSite(r.Participants, outsider) {
		t.Fatalf("master %d not joined: %v", outsider, r.Participants)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r.Decided() || r.Outcome() != proto.Commit {
		t.Fatalf("outcome=%v blocked=%v", r.Outcome(), r.Blocked())
	}
}

// Sim-vs-live parity for sharded workloads: the same placement, the same
// deterministic-outcome transactions, identical per-transaction outcomes
// and replica sets on the simulator and on live daemons, and termination
// on both. The aborts are scripted no votes at a slave replica of the
// written key's shard.
func TestShardedSimLiveParity(t *testing.T) {
	const sites = 6
	layout := mustArithmetic(t, 6, 3, sites)
	noAtSlave := func(key string) Voter { return NoAt(layout.Replicas(layout.ShardOf(key))[1]) }
	batch := []Txn{
		{Payload: put("a0")},
		{Payload: put("a1"), Votes: noAtSlave("a1")},
		{Payload: put("a2")},
		{Payload: put("a3"), Votes: noAtSlave("a3")},
		{Payload: put("a4")},
	}
	run := func(backend Backend) []*TxnResult {
		c, err := Open(Config{
			Sites:     sites,
			Protocol:  core.Protocol{TransientFix: true},
			Directory: placement.NewDirectory(mustArithmetic(t, 6, 3, sites)),
			Backend:   backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rs, err := c.SubmitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		mustVerify(t, c)
		for _, r := range rs {
			if !r.Consistent() {
				t.Fatalf("%s backend: txn %d inconsistent", backend.Name(), r.TID)
			}
		}
		return rs
	}
	simRS := run(NewSimBackend(SimOptions{}))
	liveRS := run(netBackend(t))
	want := []proto.Outcome{proto.Commit, proto.Abort, proto.Commit, proto.Abort, proto.Commit}
	for i := range want {
		if got := simRS[i].Outcome(); got != want[i] {
			t.Errorf("sim txn %d = %v, want %v", i+1, got, want[i])
		}
		if got := liveRS[i].Outcome(); got != want[i] {
			t.Errorf("live txn %d = %v, want %v", i+1, got, want[i])
		}
		if sp, lp := fmt.Sprint(simRS[i].Participants), fmt.Sprint(liveRS[i].Participants); sp != lp {
			t.Errorf("txn %d replica sets: sim=%s live=%s", i+1, sp, lp)
		}
	}
}
