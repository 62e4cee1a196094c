package quorum

import (
	"reflect"
	"slices"
	"testing"

	"termproto/internal/db/engine"
	"termproto/internal/placement"
	"termproto/internal/proto"
)

func TestRuleMet(t *testing.T) {
	cases := []struct {
		r              Rule
		present, total int
		want           bool
	}{
		{All, 3, 3, true}, {All, 2, 3, false}, {All, 0, 0, false},
		{Majority, 2, 3, true}, {Majority, 1, 3, false}, {Majority, 1, 2, false},
		{Majority, 2, 4, false}, {Majority, 3, 4, true}, {Majority, 0, 0, false},
		{One, 1, 3, true}, {One, 0, 3, false}, {One, 0, 0, false},
	}
	for _, c := range cases {
		if got := c.r.Met(c.present, c.total); got != c.want {
			t.Errorf("%v.Met(%d, %d) = %t, want %t", c.r, c.present, c.total, got, c.want)
		}
	}
}

func TestParseRuleRoundTrip(t *testing.T) {
	for _, r := range []Rule{All, Majority, One} {
		got, err := ParseRule(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRule(%q) = %v, %v", r.String(), got, err)
		}
	}
	if r, err := ParseRule(""); err != nil || r != All {
		t.Errorf("empty rule = %v, %v, want All", r, err)
	}
	if _, err := ParseRule("most"); err == nil {
		t.Error("ParseRule accepted garbage")
	}
}

func mustAsg(t *testing.T, shards, rf, sites int) *placement.Assignment {
	t.Helper()
	a, err := placement.Arithmetic(shards, rf, sites)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGroupsForSkipsMetaAndEpochOps(t *testing.T) {
	asg := mustAsg(t, 4, 2, 4)
	payload := engine.EncodeOps([]engine.Op{
		{Kind: engine.OpPut, Key: "acct/1", Value: []byte("x")},
		{Kind: engine.OpEpoch, Key: placement.EpochKey(1), Value: placement.EncodeAssignment(asg)},
		{Kind: engine.OpPut, Key: engine.MetaPrefix + "note", Value: []byte("m")},
		{Kind: engine.OpAdd, Key: "acct/3", Delta: 1}, // a lower shard than acct/1
	})
	groups := GroupsFor(asg, payload)
	// The groups are placement's DataShards, ascending.
	want := asg.DataShards(payload)
	slices.Sort(want)
	if len(want) != 2 || want[0] == want[1] {
		t.Fatalf("fixture keys share a shard: %v", want)
	}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want shards %v", groups, want)
	}
	for i, g := range groups {
		if g.Shard != want[i] {
			t.Fatalf("groups = %v, want shards %v", groups, want)
		}
		if !reflect.DeepEqual(g.Replicas, asg.Replicas(g.Shard)) {
			t.Fatalf("group replicas %v, want %v", g.Replicas, asg.Replicas(g.Shard))
		}
	}

	// Pure-meta payloads, undecodable payloads, and nil assignments all
	// yield nil (the caller treats the transaction as roster-wide).
	metaOnly := engine.EncodeOps([]engine.Op{
		{Kind: engine.OpEpoch, Key: placement.EpochKey(0), Value: []byte("v")},
	})
	if g := GroupsFor(asg, metaOnly); g != nil {
		t.Fatalf("meta-only payload grouped: %v", g)
	}
	if g := GroupsFor(asg, []byte{0xff, 0x01}); g != nil {
		t.Fatalf("garbage payload grouped: %v", g)
	}
	if g := GroupsFor(nil, payload); g != nil {
		t.Fatalf("nil assignment grouped: %v", g)
	}
}

func TestEvalAndAvailable(t *testing.T) {
	g := Group{Shard: 0, Replicas: []proto.SiteID{1, 2, 3}}
	up := func(ok ...proto.SiteID) func(proto.SiteID) bool {
		set := map[proto.SiteID]bool{}
		for _, id := range ok {
			set[id] = true
		}
		return func(id proto.SiteID) bool { return set[id] }
	}
	if !Eval(g, up(1, 2, 3), All) || Eval(g, up(1, 2), All) {
		t.Error("All rule misevaluated")
	}
	if !Eval(g, up(1, 2), Majority) || Eval(g, up(1), Majority) {
		t.Error("Majority rule misevaluated")
	}
	if !Eval(g, up(3), One) || Eval(g, up(), One) {
		t.Error("One rule misevaluated")
	}
	// nil predicate counts everyone present.
	if !Eval(g, nil, All) {
		t.Error("nil predicate should pass All")
	}

	g2 := Group{Shard: 1, Replicas: []proto.SiteID{3, 4}}
	if !Available([]Group{g, g2}, up(1, 2, 3, 4), All) {
		t.Error("full reachability not available")
	}
	if Available([]Group{g, g2}, up(1, 2, 3), All) {
		t.Error("available with g2 short a replica")
	}
	// No groups means nothing to admit against — not vacuous truth.
	if Available(nil, up(1), All) {
		t.Error("empty group list reported available")
	}
}

func TestAvailableShards(t *testing.T) {
	asg := mustAsg(t, 5, 2, 5) // shard s -> {s+1, s+2 mod ring}
	minority := func(id proto.SiteID) bool { return id == 4 || id == 5 }
	got := AvailableShards(asg, minority, All)
	want := []int{3} // the one shard fully inside {4,5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("minority All shards = %v, want %v", got, want)
	}
	// With rf=3 groups, a two-site side can reach majority (2 of 3) on
	// shards it could never fully host.
	asg3 := mustAsg(t, 5, 3, 5)
	if got := AvailableShards(asg3, minority, All); got != nil {
		t.Fatalf("rf=3 minority All shards = %v, want none", got)
	}
	if got := AvailableShards(asg3, minority, Majority); len(got) == 0 {
		t.Fatalf("rf=3 Majority should widen availability, got %v", got)
	}
	if got := AvailableShards(asg, func(proto.SiteID) bool { return true }, All); len(got) != 5 {
		t.Fatalf("full reachability = %v, want all 5", got)
	}
	if got := AvailableShards(nil, minority, All); got != nil {
		t.Fatalf("nil assignment = %v", got)
	}
}
