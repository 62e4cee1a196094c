package cluster

import (
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

func mustShardMap(t *testing.T, shards, rf, sites int) *ShardMap {
	t.Helper()
	m, err := NewShardMap(shards, rf, sites)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestShardMapValidation(t *testing.T) {
	for name, args := range map[string][3]int{
		"zeroShards": {0, 2, 4},
		"zeroRF":     {4, 0, 4},
		"rfTooBig":   {4, 5, 4},
		"oneSite":    {4, 2, 1},
	} {
		if _, err := NewShardMap(args[0], args[1], args[2]); err == nil {
			t.Errorf("%s: NewShardMap(%v) accepted", name, args)
		}
	}
	// RF=1 is legal: single-replica shards commit through the local fast
	// path instead of a protocol round.
	if _, err := NewShardMap(4, 1, 4); err != nil {
		t.Errorf("rf=1 rejected: %v", err)
	}
}

func TestShardMapPlacement(t *testing.T) {
	m := mustShardMap(t, 8, 3, 6)
	for s := 0; s < m.Shards(); s++ {
		reps := m.Replicas(s)
		if len(reps) != 3 {
			t.Fatalf("shard %d: %d replicas", s, len(reps))
		}
		if reps[0] != m.Primary(s) {
			t.Fatalf("shard %d: primary %d not first in %v", s, m.Primary(s), reps)
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
		s := m.ShardOf(key)
		if s != m.ShardOf(key) {
			t.Fatalf("ShardOf(%q) not stable", key)
		}
		hosted := 0
		for site := 1; site <= 6; site++ {
			if m.Hosts(proto.SiteID(site), key) {
				hosted++
			}
		}
		if hosted != 3 {
			t.Fatalf("key %q hosted at %d sites, want 3", key, hosted)
		}
	}
	// SitesFor is the sorted union of the touched replica sets.
	a, b := "acct/0", "acct/5"
	union := map[proto.SiteID]bool{}
	for _, id := range m.Replicas(m.ShardOf(a)) {
		union[id] = true
	}
	for _, id := range m.Replicas(m.ShardOf(b)) {
		union[id] = true
	}
	got := m.SitesFor(a, b)
	if len(got) != len(union) {
		t.Fatalf("SitesFor = %v, union has %d members", got, len(union))
	}
	for i, id := range got {
		if !union[id] {
			t.Fatalf("SitesFor member %d not in union %v", id, got)
		}
		if i > 0 && got[i-1] >= id {
			t.Fatalf("SitesFor not ascending: %v", got)
		}
	}
}

func TestShardMapParticipantsFor(t *testing.T) {
	m := mustShardMap(t, 4, 2, 8)
	payload := transfer(0, 1, 5)
	got := m.ParticipantsFor(payload)
	want := m.SitesFor("acct/0", "acct/1")
	if len(got) != len(want) {
		t.Fatalf("ParticipantsFor = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ParticipantsFor = %v, want %v", got, want)
		}
	}
	// Key-less and undecodable payloads fall back to broadcast (nil).
	if ids := m.ParticipantsFor(nil); ids != nil {
		t.Fatalf("nil payload → %v, want nil", ids)
	}
	if ids := m.ParticipantsFor([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); ids != nil {
		t.Fatalf("garbage payload → %v, want nil", ids)
	}
}

// The acceptance property: with Shards > 1 and ReplicationFactor < Sites,
// automata are instantiated only at a transaction's participant sites.
func TestShardedPlacementSpawnsOnlyParticipants(t *testing.T) {
	const sites = 6
	m := mustShardMap(t, 6, 2, sites)
	sb := NewSimBackend(SimOptions{})
	c, err := Open(Config{
		Sites:    sites,
		Protocol: core.Protocol{TransientFix: true},
		ShardMap: m,
		Backend:  sb,
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
		expect := m.SitesFor(fmt.Sprintf("acct/%d", i), fmt.Sprintf("acct/%d", i+3))
		if len(r.Participants) != len(expect) {
			t.Fatalf("txn %d participants %v, want %v", r.TID, r.Participants, expect)
		}
		for j := range expect {
			if r.Participants[j] != expect[j] {
				t.Fatalf("txn %d participants %v, want %v", r.TID, r.Participants, expect)
			}
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
	if err := c.Termination(); err != nil {
		t.Fatal(err)
	}
}

// shardedEngines builds placement-aware replicas: each engine hosts (and
// is seeded with) only the accounts of the shards it replicates.
func shardedEngines(m *ShardMap, accounts int, balance int64) map[proto.SiteID]Participant {
	out := make(map[proto.SiteID]Participant, m.Sites())
	for i := 1; i <= m.Sites(); i++ {
		id := proto.SiteID(i)
		e := engine.New(fmt.Sprintf("site-%d", i), &wal.MemStore{})
		e.SetPlacement(func(key string) bool { return m.Hosts(id, key) })
		for a := 0; a < accounts; a++ {
			if key := fmt.Sprintf("acct/%d", a); m.Hosts(id, key) {
				e.PutInt(key, balance)
			}
		}
		out[id] = e
	}
	return out
}

// Cross-shard transfers: the multi-participant case. Both shards' replica
// groups converge, and sites outside the groups never see the data.
func TestShardedCrossShardTransfers(t *testing.T) {
	const sites, accounts = 8, 16
	m := mustShardMap(t, 8, 3, sites)
	parts := shardedEngines(m, accounts, 1_000)
	c, err := Open(Config{
		Sites:        sites,
		Protocol:     core.Protocol{TransientFix: true},
		ShardMap:     m,
		Participants: parts,
		Schedule:     Schedule{TransientPartitionAt(3000, 9000, 7, 8)},
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
		if len(r.Participants) > m.ReplicationFactor() {
			crossShard++
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if crossShard == 0 {
		t.Fatal("no cross-shard transfers in the mix")
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("sharded termination: %v", err)
	}
	st := c.Stats()
	if st.Inconsistent != 0 || st.Blocked != 0 || st.Committed == 0 {
		t.Fatalf("stats: %v", st)
	}
	// Money is conserved per shard group: sum each account at its primary.
	var total int64
	for a := 0; a < accounts; a++ {
		key := fmt.Sprintf("acct/%d", a)
		e := parts[m.Primary(m.ShardOf(key))].(*engine.Engine)
		total += e.GetInt(key)
	}
	if total != accounts*1_000 {
		t.Fatalf("total %d, want %d", total, accounts*1_000)
	}
	// Non-replicas hold nothing for a key they do not host.
	for a := 0; a < accounts; a++ {
		key := fmt.Sprintf("acct/%d", a)
		for site := 1; site <= sites; site++ {
			id := proto.SiteID(site)
			if m.Hosts(id, key) {
				continue
			}
			if _, ok := parts[id].(*engine.Engine).Get(key); ok {
				t.Fatalf("site %d holds foreign key %q", site, key)
			}
		}
	}
}

// An explicitly named master outside the replica sets joins the
// participant set — the coordinator is always a participant.
func TestShardedExplicitMasterJoins(t *testing.T) {
	const sites = 6
	m := mustShardMap(t, 6, 2, sites)
	c, err := Open(Config{Sites: sites, Protocol: core.Protocol{TransientFix: true}, ShardMap: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := transfer(0, 0+1, 1)
	derived := m.ParticipantsFor(payload)
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

// Sim-vs-live parity for sharded workloads: the same ShardMap, the same
// deterministic-outcome transactions, identical per-transaction outcomes
// and replica sets on the simulator and on live daemons, and termination
// on both. The aborts are scripted no votes at a slave replica of the
// written key's shard.
func TestShardedSimLiveParity(t *testing.T) {
	const sites = 6
	layout := mustShardMap(t, 6, 3, sites)
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
			Sites:    sites,
			Protocol: core.Protocol{TransientFix: true},
			ShardMap: mustShardMap(t, 6, 3, sites),
			Backend:  backend,
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
		if err := c.Termination(); err != nil {
			t.Fatalf("%s backend: %v", backend.Name(), err)
		}
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
