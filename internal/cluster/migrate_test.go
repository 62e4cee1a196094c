package cluster

import (
	"fmt"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// directoryEngines builds placement-aware replicas wired to a directory:
// each engine hosts whatever the directory's current-or-pending
// assignment places at it (so mid-migration copies land), seeded with the
// accounts of its epoch-0 shards.
func directoryEngines(d *placement.Directory, sites, accounts int, balance int64) map[proto.SiteID]*engine.Engine {
	_, asg := d.Current()
	engs := make(map[proto.SiteID]*engine.Engine, sites)
	for i := 1; i <= sites; i++ {
		id := proto.SiteID(i)
		e := engine.New(fmt.Sprintf("site-%d", i), &wal.MemStore{})
		e.SetPlacement(func(key string) bool { return d.Hosts(id, key) })
		for a := 0; a < accounts; a++ {
			if key := fmt.Sprintf("acct/%d", a); asg.Hosts(id, key) {
				e.PutInt(key, balance)
			}
		}
		engs[id] = e
	}
	return engs
}

func mustAssignment(t *testing.T, shards, rf int, members ...proto.SiteID) *placement.Assignment {
	t.Helper()
	asg, err := placement.ArithmeticOver(shards, rf, members)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

// assertHostsShards checks that the site replicates a shard under the
// directory's current epoch; Verify checks that its copies converged.
func assertHostsShards(t *testing.T, d *placement.Directory, site proto.SiteID) {
	t.Helper()
	_, asg := d.Current()
	for s := 0; s < asg.Shards(); s++ {
		if containsSite(asg.Replicas(s), site) {
			return
		}
	}
	t.Fatalf("site %d hosts no shards after the migration", site)
}

// migrate injects a membership event, drives the timeline over it and
// returns its report.
func migrate(t *testing.T, c *Cluster, ev Event) *MigrationReport {
	t.Helper()
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	reps := c.Migrations()
	if len(reps) == 0 {
		t.Fatalf("%v left no migration report", ev)
	}
	return reps[len(reps)-1]
}

// The headline acceptance scenario, run on BOTH backends: a fresh
// provisioned site joins mid-traffic, shards migrate onto it through the
// catch-up machinery, the epoch bump commits through the commit protocol,
// and the new replica ends byte-identical to its shard peers.
func joinScenario(t *testing.T, backend Backend) {
	t.Helper()
	const sites, accounts = 4, 16
	d := placement.NewDirectory(mustAssignment(t, 8, 2, 1, 2, 3))
	engs := directoryEngines(d, sites, accounts, 1000)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
		Backend:   backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Traffic before the join commits under epoch 0.
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(Txn{Payload: transfer(i, i+8, 5), At: c.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	rep := migrate(t, c, JoinAt(c.Now(), 4))
	if rep.Err != nil {
		t.Fatalf("join: %v", rep)
	}
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("join not committed at epoch 1: %v", rep)
	}
	if rep.ShardsMoved == 0 || rep.KeysMigrated == 0 {
		t.Fatalf("join moved nothing: %v", rep)
	}
	if e := d.Epoch(); e != 1 {
		t.Fatalf("directory epoch = %d, want 1", e)
	}
	if _, asg := d.Current(); !asg.IsMember(4) {
		t.Fatal("joiner not a member after commit")
	}

	// Traffic after the join runs under epoch 1 and must reach site 4 for
	// the shards it now hosts.
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(Txn{Payload: transfer(i, i+8, 3), At: c.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, c)
	assertHostsShards(t, d, 4)
	st := c.Stats()
	if st.Epoch != 1 || st.ShardsMoved == 0 || st.KeysMigrated == 0 {
		t.Fatalf("stats missing migration counters: %v", st)
	}
	if st.Inconsistent != 0 || st.Blocked != 0 {
		t.Fatalf("stats: %v", st)
	}
}

func TestSimJoinMigratesShards(t *testing.T) {
	joinScenario(t, NewSimBackend(SimOptions{}))
}

// liveLinks is the delay model of the live daemons' links (site.Link):
// every crossing draws its delay between T/4 and T/2, where the
// simulator's default takes exactly T.
var liveLinks = simnet.Uniform{Lo: sim.DefaultT / 4, Hi: sim.DefaultT / 2}

// Membership changes do not cross the process boundary (NetBackend
// rejects join and leave), so the live variants run on the simulator
// under the live daemons' link timing.
func TestLiveJoinMigratesShards(t *testing.T) {
	joinScenario(t, NewSimBackend(SimOptions{Latency: liveLinks, Seed: 5}))
}

// A leave drains its shards to replacement replicas without losing a
// committed write, on BOTH backends.
func leaveScenario(t *testing.T, backend Backend) {
	t.Helper()
	const sites, accounts = 5, 15
	d := placement.NewDirectory(mustAssignment(t, 6, 3, 1, 2, 3, 4, 5))
	engs := directoryEngines(d, sites, accounts, 1000)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
		Backend:   backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Commit writes everywhere, including shards hosted at site 5.
	moved := int64(0)
	for i := 0; i < accounts; i++ {
		r, err := c.Submit(Txn{Payload: transfer(i, (i+1)%accounts, 7), At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		if r.Outcome() == proto.Commit {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no committed writes before the leave")
	}

	rep := migrate(t, c, LeaveAt(c.Now(), 5))
	if rep.Err != nil {
		t.Fatalf("leave: %v", rep)
	}
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("leave not committed: %v", rep)
	}
	_, asg := d.Current()
	if asg.IsMember(5) {
		t.Fatal("leaver still a member")
	}
	for s := 0; s < asg.Shards(); s++ {
		if containsSite(asg.Replicas(s), 5) {
			t.Fatalf("shard %d still placed at the leaver", s)
		}
	}
	mustVerify(t, c)
	// No committed write lost: every account's balance agrees across its
	// current replicas, and the total is conserved.
	var total int64
	for a := 0; a < accounts; a++ {
		key := fmt.Sprintf("acct/%d", a)
		reps := asg.Replicas(asg.ShardOf(key))
		ref := engs[reps[0]].GetInt(key)
		for _, id := range reps[1:] {
			if got := engs[id].GetInt(key); got != ref {
				t.Fatalf("%s: replica %d has %d, replica %d has %d", key, reps[0], ref, id, got)
			}
		}
		total += ref
	}
	if total != int64(accounts)*1000 {
		t.Fatalf("total %d after leave, want %d — a committed write was lost", total, accounts*1000)
	}
}

func TestSimLeaveDrainsWithoutLoss(t *testing.T) {
	leaveScenario(t, NewSimBackend(SimOptions{}))
}

func TestLiveLeaveDrainsWithoutLoss(t *testing.T) {
	leaveScenario(t, NewSimBackend(SimOptions{Latency: liveLinks, Seed: 5}))
}

// Transactions admitted before an epoch bump terminate under their
// admission epoch: the participant set stays the epoch-N resolution even
// though the directory has moved to N+1 by the time they run.
func TestAdmissionEpochPinsParticipants(t *testing.T) {
	const sites, accounts = 4, 16
	d := placement.NewDirectory(mustAssignment(t, 8, 2, 1, 2, 3))
	engs := directoryEngines(d, sites, accounts, 1000)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a payload whose replica set will change when site 4 joins.
	_, asg0 := d.Current()
	next, err := asg0.WithJoin(4)
	if err != nil {
		t.Fatal(err)
	}
	payload, from := []byte(nil), -1
	for a := 0; a < accounts; a++ {
		p := transfer(a, (a+8)%accounts, 2)
		before, after := asg0.ParticipantsFor(p), next.ParticipantsFor(p)
		if fmt.Sprint(before) != fmt.Sprint(after) {
			payload, from = p, a
			break
		}
	}
	if payload == nil {
		t.Fatal("no payload's placement changes with the join")
	}
	want := asg0.ParticipantsFor(payload)

	// Admit under epoch 0, but start far enough out that the join commits
	// first; the transaction must still run at its admission-epoch
	// participants.
	r1, err := c.Submit(Txn{Payload: payload, At: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep := migrate(t, c, JoinAt(c.Now(), 4)); !rep.Committed {
		t.Fatalf("join: %v", rep)
	}
	if r1.Epoch != 0 {
		t.Fatalf("admission epoch = %d, want 0", r1.Epoch)
	}
	if fmt.Sprint(r1.Participants) != fmt.Sprint(want) {
		t.Fatalf("epoch-0 txn ran at %v, want its admission-epoch set %v", r1.Participants, want)
	}
	if !r1.Decided() || !r1.Consistent() || r1.Outcome() != proto.Commit {
		t.Fatalf("epoch-0 txn failed to terminate: outcome=%v blocked=%v", r1.Outcome(), r1.Blocked())
	}

	// The same payload admitted now resolves under epoch 1.
	r2, err := c.Submit(Txn{Payload: transfer(from, (from+8)%accounts, 2), At: c.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != 1 {
		t.Fatalf("post-join admission epoch = %d, want 1", r2.Epoch)
	}
	if fmt.Sprint(r2.Participants) == fmt.Sprint(want) {
		t.Fatalf("post-join txn still at epoch-0 participants %v", r2.Participants)
	}
	mustVerify(t, c)
}

// The migration-under-partition scenario: a MoveShard epoch-bump
// transaction is caught mid-protocol by a partition that splits its
// participants. The termination protocol resolves it consistently on both
// sides, and the directory's epoch matches the verdict.
func TestMoveShardInDoubtUnderPartition(t *testing.T) {
	const sites, accounts = 4, 12
	for _, healAt := range []sim.Time{0, 9000} { // permanent and transient boundary
		d := placement.NewDirectory(mustAssignment(t, 4, 2, 1, 2, 3, 4))
		engs := directoryEngines(d, sites, accounts, 500)
		c, err := Open(Config{
			Sites:     sites,
			Protocol:  core.Protocol{TransientFix: true},
			Directory: d,
			Engines:   engs,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Move shard 0 from its primary to a site outside its replica set.
		_, asg := d.Current()
		reps := asg.Replicas(0)
		var to proto.SiteID
		for _, id := range asg.Members() {
			if !containsSite(reps, id) {
				to = id
				break
			}
		}
		// Cut the destination (and the epoch-bump txn's slave side) off
		// mid-protocol: the partition lands while the metadata txn is in
		// flight (submission at ~0, decision windows at 2T+).
		ev := PartitionAt(1500, to)
		if healAt > 0 {
			ev.Heal = healAt
		}
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
		rep := migrate(t, c, MoveShardAt(c.Now(), 0, reps[0], to))
		if rep.Err != nil {
			t.Fatalf("heal=%d: move: %v", healAt, rep)
		}
		if !rep.Done {
			t.Fatalf("heal=%d: migration never decided: %v", healAt, rep)
		}
		r := c.Result(rep.TID)
		if r == nil {
			t.Fatalf("heal=%d: no result for epoch txn %d", healAt, rep.TID)
		}
		if !r.Consistent() {
			t.Fatalf("heal=%d: epoch-bump txn inconsistent across the boundary: %+v", healAt, r.Sites)
		}
		if b := r.Blocked(); len(b) != 0 {
			t.Fatalf("heal=%d: epoch-bump txn blocked at %v", healAt, b)
		}
		// The directory's verdict matches the transaction's everywhere:
		// epoch advanced iff the metadata txn committed, and every
		// participant's durable decision agrees.
		wantEpoch := placement.Epoch(0)
		if r.Outcome() == proto.Commit {
			wantEpoch = 1
		}
		if e := d.Epoch(); e != wantEpoch {
			t.Fatalf("heal=%d: epoch %d with txn outcome %v", healAt, e, r.Outcome())
		}
		for _, id := range r.Participants {
			if o, ok := engs[id].Outcome(uint64(rep.TID)); ok && o != r.Outcome() {
				t.Fatalf("heal=%d: site %d durably decided %v, txn outcome %v", healAt, id, o, r.Outcome())
			}
		}
		mustVerify(t, c)
		c.Close()
	}
}

// A migration whose epoch-bump coordinator is crashed can never decide:
// the cluster must settle it as aborted at the Wait boundary instead of
// leaving the directory's pending assignment wedged forever.
func TestCrashedMasterMigrationSettlesAborted(t *testing.T) {
	const sites, accounts = 4, 12
	d := placement.NewDirectory(mustAssignment(t, 4, 2, 1, 2, 3, 4))
	engs := directoryEngines(d, sites, accounts, 500)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Shard 0 lives at [1,2]; moving it 1→3 makes site 1 the epoch-bump
	// coordinator — and site 1 is dead.
	if err := c.Inject(CrashAt(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := migrate(t, c, MoveShardAt(c.Now(), 0, 1, 3))
	if rep.Err != nil {
		t.Fatalf("move: %v", rep)
	}
	if !rep.Done || rep.Committed {
		t.Fatalf("dead-coordinator migration not settled as aborted: %v", rep)
	}
	if e := d.Epoch(); e != 0 {
		t.Fatalf("epoch advanced without a committed bump: %d", e)
	}
	// The directory is not wedged: a migration with a live coordinator
	// (shard 1 lives at [2,3]) proceeds normally.
	rep2 := migrate(t, c, MoveShardAt(c.Now(), 1, 2, 4))
	if rep2.Err != nil {
		t.Fatalf("follow-up move rejected — pending assignment leaked: %v", rep2)
	}
	if !rep2.Committed || rep2.Epoch != 1 {
		t.Fatalf("follow-up move: %v", rep2)
	}
}

// Scheduled membership events run at their exact ticks on the sim
// timeline, interleaved with traffic.
func TestScheduledJoinLeaveEvents(t *testing.T) {
	const sites, accounts = 5, 20
	d := placement.NewDirectory(mustAssignment(t, 10, 2, 1, 2, 3, 4))
	engs := directoryEngines(d, sites, accounts, 1000)
	c, err := Open(Config{
		Sites:     sites,
		Protocol:  core.Protocol{TransientFix: true},
		Directory: d,
		Engines:   engs,
		Schedule: Schedule{
			JoinAt(8000, 5),
			LeaveAt(30_000, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < accounts; i++ {
		if _, err := c.Submit(Txn{Payload: transfer(i, (i+3)%accounts, 4), At: sim.Time(i) * 3000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if e := d.Epoch(); e != 2 {
		t.Fatalf("epoch = %d after scheduled join+leave, want 2", e)
	}
	_, asg := d.Current()
	if !asg.IsMember(5) || asg.IsMember(1) {
		t.Fatalf("membership after events: %v", asg.Members())
	}
	mustVerify(t, c)
	assertHostsShards(t, d, 5)
	for _, rep := range c.Migrations() {
		if rep.Err != nil || !rep.Committed {
			t.Fatalf("scheduled migration failed: %v", rep)
		}
	}
}

// RF=1 placement takes the local fast path: a single-replica transaction
// commits at its one site without a protocol round — zero messages on
// the wire — on BOTH backends.
func TestRF1LocalFastPath(t *testing.T) {
	run := func(backend Backend) {
		const sites, accounts = 4, 8
		d := placement.NewDirectory(mustArithmetic(t, accounts, 1, sites))
		engs := directoryEngines(d, sites, accounts, 100)
		c, err := Open(Config{
			Sites:     sites,
			Protocol:  core.Protocol{TransientFix: true},
			Directory: d,
			Engines:   engs,
			Backend:   backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Single-key payloads: exactly one replica, no protocol round.
		var rs []*TxnResult
		for a := 0; a < accounts; a++ {
			payload := engine.EncodeOps([]engine.Op{
				{Kind: engine.OpAdd, Key: fmt.Sprintf("acct/%d", a), Delta: 11},
			})
			r, err := c.Submit(Txn{Payload: payload, At: c.Now()})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Participants) != 1 {
				t.Fatalf("rf=1 single-key txn at %v participants", r.Participants)
			}
			rs = append(rs, r)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Outcome() != proto.Commit || !r.Decided() {
				t.Fatalf("local txn %d: outcome=%v blocked=%v", r.TID, r.Outcome(), r.Blocked())
			}
		}
		st := c.Stats()
		if st.Net.MsgsSent != 0 {
			t.Fatalf("%s: local fast path sent %d messages, want 0", backend.Name(), st.Net.MsgsSent)
		}
		if st.Committed != accounts {
			t.Fatalf("stats: %v", st)
		}
		// An overdraft still aborts locally.
		bad := engine.EncodeOps([]engine.Op{
			{Kind: engine.OpAdd, Key: "acct/0", Delta: -10_000},
		})
		r, err := c.Submit(Txn{Payload: bad, At: c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		if r.Outcome() != proto.Abort {
			t.Fatalf("overdraft committed on the fast path: %v", r.Outcome())
		}
		mustVerify(t, c)
		_, asg := d.Current()
		for a := 0; a < accounts; a++ {
			key := fmt.Sprintf("acct/%d", a)
			if got := engs[asg.Primary(asg.ShardOf(key))].GetInt(key); got != 111 {
				t.Fatalf("%s = %d, want 111", key, got)
			}
		}
	}
	run(NewSimBackend(SimOptions{}))
}
