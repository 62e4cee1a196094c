package placement

import (
	"fmt"
	"slices"
	"testing"

	"termproto/internal/db/engine"
	"termproto/internal/proto"
)

func mustArithmetic(t *testing.T, shards, rf, sites int) *Assignment {
	t.Helper()
	a, err := Arithmetic(shards, rf, sites)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// An Arithmetic assignment places shard s at the ring of rf consecutive
// sites starting at s mod sites + 1, primary first.
func TestArithmeticRing(t *testing.T) {
	a := mustArithmetic(t, 8, 3, 6)
	for s := 0; s < 8; s++ {
		want := []proto.SiteID{
			proto.SiteID(s%6 + 1),
			proto.SiteID((s+1)%6 + 1),
			proto.SiteID((s+2)%6 + 1),
		}
		got := a.Replicas(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d replicas %v, want %v", s, got, want)
			}
		}
		if a.Primary(s) != want[0] {
			t.Fatalf("shard %d primary %d, want %d", s, a.Primary(s), want[0])
		}
	}
}

func TestAssignmentValidation(t *testing.T) {
	for name, args := range map[string][3]int{
		"zeroShards": {0, 2, 4},
		"zeroRF":     {4, 0, 4},
		"rfTooBig":   {4, 5, 4},
		"oneSite":    {4, 2, 1},
	} {
		if _, err := Arithmetic(args[0], args[1], args[2]); err == nil {
			t.Errorf("%s: Arithmetic(%v) accepted", name, args)
		}
	}
	// RF=1 is legal: single-replica shards take the local fast path.
	if _, err := Arithmetic(4, 1, 4); err != nil {
		t.Fatalf("rf=1 rejected: %v", err)
	}
	if _, err := ArithmeticOver(4, 2, []proto.SiteID{2, 2, 3}); err == nil {
		t.Error("duplicate member accepted")
	}
}

// DataShards is the one payload-to-shard rule: data keys' shards, each
// once, in op order; directory records, meta keys and empty keys name no
// data. ParticipantsFor is the ascending union of those shards' replica
// sets.
func TestDataShardsAndParticipantsFor(t *testing.T) {
	a := mustArithmetic(t, 4, 2, 6) // shard s lives at {s+1, s+2}
	// keyOn returns the nth "acct/i" key hashing to shard.
	keyOn := func(shard, nth int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("acct/%d", i); a.ShardOf(k) == shard {
				if nth == 0 {
					return k
				}
				nth--
			}
		}
	}
	add := func(key string) engine.Op { return engine.Op{Kind: engine.OpAdd, Key: key, Delta: 1} }
	put := func(key string) engine.Op { return engine.Op{Kind: engine.OpPut, Key: key, Value: []byte("v")} }
	epoch := engine.Op{Kind: engine.OpEpoch, Key: EpochKey(1), Value: EncodeAssignment(a)}
	for _, c := range []struct {
		name   string
		body   []byte
		shards []int
		sites  []proto.SiteID
	}{
		{"two shards in op order", engine.EncodeOps([]engine.Op{add(keyOn(2, 0)), add(keyOn(0, 0))}),
			[]int{2, 0}, []proto.SiteID{1, 2, 3, 4}},
		{"overlapping replica sets", engine.EncodeOps([]engine.Op{add(keyOn(1, 0)), add(keyOn(0, 0))}),
			[]int{1, 0}, []proto.SiteID{1, 2, 3}},
		{"repeated shard", engine.EncodeOps([]engine.Op{add(keyOn(3, 0)), add(keyOn(1, 0)), add(keyOn(3, 1))}),
			[]int{3, 1}, []proto.SiteID{2, 3, 4, 5}},
		{"directory record", engine.EncodeOps([]engine.Op{epoch, add(keyOn(3, 0))}),
			[]int{3}, []proto.SiteID{4, 5}},
		{"put on a meta key", engine.EncodeOps([]engine.Op{put(engine.MetaPrefix + "note"), add(keyOn(0, 0))}),
			[]int{0}, []proto.SiteID{1, 2}},
		{"empty key", engine.EncodeOps([]engine.Op{put(""), add(keyOn(1, 0))}),
			[]int{1}, []proto.SiteID{2, 3}},
		{"directory record only", engine.EncodeOps([]engine.Op{epoch}), nil, nil},
		{"nil body", nil, nil, nil},
		{"garbage body", []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, nil, nil},
	} {
		if got := a.DataShards(c.body); !slices.Equal(got, c.shards) || (got == nil) != (c.shards == nil) {
			t.Errorf("%s: DataShards = %v, want %v", c.name, got, c.shards)
		}
		if got := a.ParticipantsFor(c.body); !slices.Equal(got, c.sites) || (got == nil) != (c.sites == nil) {
			t.Errorf("%s: ParticipantsFor = %v, want %v", c.name, got, c.sites)
		}
	}
	if got := (*Assignment)(nil).DataShards(engine.EncodeOps([]engine.Op{add("acct/0")})); got != nil {
		t.Errorf("nil assignment: DataShards = %v, want nil", got)
	}

	// Hosts agrees with Replicas, for every key a body could name.
	b := mustArithmetic(t, 8, 3, 6)
	for _, key := range []string{"acct/0", "acct/7", "x", ""} {
		var hosts []proto.SiteID
		for site := proto.SiteID(1); site <= 6; site++ {
			if b.Hosts(site, key) {
				hosts = append(hosts, site)
			}
		}
		reps := b.Replicas(b.ShardOf(key))
		slices.Sort(reps)
		if !slices.Equal(hosts, reps) {
			t.Errorf("key %q hosted at %v, replicas %v", key, hosts, reps)
		}
	}
}

func invariants(t *testing.T, a *Assignment, what string) {
	t.Helper()
	load := map[proto.SiteID]int{}
	for s := 0; s < a.Shards(); s++ {
		reps := a.Replicas(s)
		if len(reps) != a.ReplicationFactor() {
			t.Fatalf("%s: shard %d has %d replicas, want rf=%d", what, s, len(reps), a.ReplicationFactor())
		}
		seen := map[proto.SiteID]bool{}
		for _, id := range reps {
			if !a.IsMember(id) {
				t.Fatalf("%s: shard %d replica %d is not a member %v", what, s, id, a.Members())
			}
			if seen[id] {
				t.Fatalf("%s: shard %d duplicate replica in %v", what, s, reps)
			}
			seen[id] = true
			load[id]++
		}
	}
	_ = load
}

func TestJoinRebalances(t *testing.T) {
	a := mustArithmetic(t, 12, 2, 4)
	n, err := a.WithJoin(5)
	if err != nil {
		t.Fatal(err)
	}
	invariants(t, n, "join")
	if !n.IsMember(5) {
		t.Fatal("joiner not a member")
	}
	moves := Diff(a, n)
	if len(moves) == 0 {
		t.Fatal("join moved no shards")
	}
	// The joiner carries roughly its fair share: slots/members = 24/5.
	got := 0
	for _, mv := range moves {
		for _, id := range mv.Added {
			if id == 5 {
				got++
			}
		}
	}
	if got < 3 || got > 6 {
		t.Fatalf("joiner received %d replicas, want ~4", got)
	}
	// Every move both adds the joiner and removes exactly one old replica.
	for _, mv := range moves {
		if len(mv.Added) != 1 || mv.Added[0] != 5 || len(mv.Removed) != 1 {
			t.Fatalf("unexpected move %+v", mv)
		}
	}
	// Joining an existing member fails.
	if _, err := n.WithJoin(5); err == nil {
		t.Fatal("double join accepted")
	}
}

func TestLeaveDrains(t *testing.T) {
	a := mustArithmetic(t, 9, 3, 5)
	n, err := a.WithLeave(2)
	if err != nil {
		t.Fatal(err)
	}
	invariants(t, n, "leave")
	if n.IsMember(2) {
		t.Fatal("leaver still a member")
	}
	for s := 0; s < n.Shards(); s++ {
		for _, id := range n.Replicas(s) {
			if id == 2 {
				t.Fatalf("shard %d still replicated at the leaver", s)
			}
		}
	}
	// Leaving below rf fails.
	min := mustArithmetic(t, 4, 3, 3)
	if _, err := min.WithLeave(1); err == nil {
		t.Fatal("leave below rf accepted")
	}
	if _, err := a.WithLeave(9); err == nil {
		t.Fatal("leave of a non-member accepted")
	}
}

func TestMoveShard(t *testing.T) {
	a := mustArithmetic(t, 6, 2, 5)
	from := a.Primary(0)
	var to proto.SiteID
	for _, id := range a.Members() {
		in := false
		for _, r := range a.Replicas(0) {
			if r == id {
				in = true
			}
		}
		if !in {
			to = id
			break
		}
	}
	n, err := a.WithMove(0, from, to)
	if err != nil {
		t.Fatal(err)
	}
	invariants(t, n, "move")
	moves := Diff(a, n)
	if len(moves) != 1 || moves[0].Shard != 0 {
		t.Fatalf("moves = %+v", moves)
	}
	if len(moves[0].Added) != 1 || moves[0].Added[0] != to ||
		len(moves[0].Removed) != 1 || moves[0].Removed[0] != from {
		t.Fatalf("move diff = %+v", moves[0])
	}
	if _, err := a.WithMove(0, from, from); err == nil {
		t.Fatal("move onto an existing replica accepted")
	}
	if _, err := a.WithMove(99, from, to); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func TestDirectoryEpochs(t *testing.T) {
	a := mustArithmetic(t, 4, 2, 3)
	d := NewDirectory(a)
	if e, cur := d.Current(); e != 0 || cur != a {
		t.Fatalf("fresh directory at epoch %d", e)
	}
	n, err := a.WithJoin(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPending(n); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPending(n); err == nil {
		t.Fatal("second concurrent migration accepted")
	}
	// Mid-migration, the joiner hosts its incoming shards (pending union).
	hosted := false
	for _, mv := range Diff(a, n) {
		for key := 0; key < 64 && !hosted; key++ {
			k := testKey(key)
			if n.ShardOf(k) == mv.Shard && d.Hosts(4, k) {
				hosted = true
			}
		}
	}
	if !hosted {
		t.Fatal("pending assignment not visible through Hosts")
	}
	if e := d.CommitPending(); e != 1 {
		t.Fatalf("epoch after commit = %d, want 1", e)
	}
	if d.At(0) != a || d.At(1) != n || d.At(2) != nil {
		t.Fatal("At() does not preserve history")
	}
	// An aborted migration leaves the epoch alone.
	m2, err := n.WithLeave(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPending(m2); err != nil {
		t.Fatal(err)
	}
	d.ClearPending()
	if e := d.Epoch(); e != 1 {
		t.Fatalf("epoch after aborted migration = %d, want 1", e)
	}
}

func testKey(i int) string { return "acct/" + string(rune('0'+i%10)) + string(rune('a'+i/10)) }

// FuzzMembershipChurn drives arbitrary join/leave/move sequences and
// asserts the invariant the cluster depends on: epoch-stamped participant
// resolution never yields an empty (or under-replicated, or non-member)
// replica set, at any epoch in the directory's history.
func FuzzMembershipChurn(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(3), []byte{0, 9, 1, 9, 2, 3})
	f.Add(uint8(8), uint8(3), uint8(5), []byte{1, 5, 0, 6, 1, 1, 0, 2})
	f.Add(uint8(1), uint8(1), uint8(2), []byte{0, 3, 1, 3})
	f.Fuzz(func(t *testing.T, shards, rf, sites uint8, script []byte) {
		ns, nrf, nsites := int(shards%16)+1, int(rf%4)+1, int(sites%8)+2
		if nrf > nsites {
			nrf = nsites
		}
		a, err := Arithmetic(ns, nrf, nsites)
		if err != nil {
			t.Skip()
		}
		d := NewDirectory(a)
		for i := 0; i+1 < len(script); i += 2 {
			_, cur := d.Current()
			op, arg := script[i]%3, script[i+1]
			var next *Assignment
			switch op {
			case 0:
				next, err = cur.WithJoin(proto.SiteID(int(arg)%(nsites+4) + 1))
			case 1:
				next, err = cur.WithLeave(proto.SiteID(int(arg)%(nsites+4) + 1))
			case 2:
				if cur.Shards() > 0 {
					s := int(arg) % cur.Shards()
					reps := cur.Replicas(s)
					next, err = cur.WithMove(s, reps[0], proto.SiteID(int(arg)%(nsites+4)+1))
				}
			}
			if err != nil || next == nil {
				continue // rejected transitions must leave the directory intact
			}
			if err := d.SetPending(next); err != nil {
				t.Fatal(err)
			}
			d.CommitPending()
		}
		// Every epoch ever current must resolve every key to a full,
		// member-only replica set.
		for e := Epoch(0); ; e++ {
			asg := d.At(e)
			if asg == nil {
				break
			}
			for k := 0; k < 32; k++ {
				key := testKey(k)
				ids := asg.Replicas(asg.ShardOf(key))
				if len(ids) == 0 {
					t.Fatalf("epoch %d: empty replica set for %q", e, key)
				}
				if len(ids) != asg.ReplicationFactor() {
					t.Fatalf("epoch %d: key %q resolved to %v, want %d replicas",
						e, key, ids, asg.ReplicationFactor())
				}
				for _, id := range ids {
					if !asg.IsMember(id) {
						t.Fatalf("epoch %d: key %q placed at non-member %d", e, key, id)
					}
				}
			}
		}
	})
}
