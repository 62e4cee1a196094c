package proto

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		None: "none", Commit: "commit", Abort: "abort", Outcome(9): "outcome(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

func TestKindStringsMatchPaperNames(t *testing.T) {
	for k, want := range map[Kind]string{
		MsgXact: "xact", MsgYes: "yes", MsgNo: "no", MsgPrepare: "prepare",
		MsgAck: "ack", MsgCommit: "commit", MsgAbort: "abort", MsgProbe: "probe",
		MsgPre: "pre", MsgPreAck: "preack",
		MsgStateReq: "state-req", MsgStateRep: "state-rep",
		MsgInquire: "inquire", MsgSolicit: "solicit", MsgSnapshot: "snapshot",
		Kind(200): "kind(200)",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
}

func TestMsgString(t *testing.T) {
	m := Msg{TID: 7, From: 1, To: 3, Kind: MsgPrepare}
	if got := m.String(); got != "prepare 1->3 tid=7" {
		t.Errorf("Msg.String() = %q", got)
	}
	m.Undeliverable = true
	if got := m.String(); got != "UD(prepare) 1->3 tid=7" {
		t.Errorf("UD Msg.String() = %q", got)
	}
}

func TestConfigSlavesAndIsMaster(t *testing.T) {
	cfg := Config{Self: 1, Master: 1, Sites: []SiteID{1, 2, 3, 4}}
	slaves := cfg.Slaves()
	if len(slaves) != 3 || slaves[0] != 2 || slaves[2] != 4 {
		t.Fatalf("Slaves = %v", slaves)
	}
	if !cfg.IsMaster() {
		t.Fatal("IsMaster false for the master")
	}
	cfg.Self = 3
	if cfg.IsMaster() {
		t.Fatal("IsMaster true for a slave")
	}
}

func TestSiteSetBasics(t *testing.T) {
	var s SiteSet // zero value usable
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero set not empty")
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add return values wrong")
	}
	s.Add(1)
	if s.Len() != 2 || !s.Has(3) || !s.Has(1) {
		t.Fatal("membership wrong")
	}
	if got := s.String(); got != "{1 3}" {
		t.Fatalf("String = %q", got)
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestSiteSetEqualMinus(t *testing.T) {
	a := NewSiteSet(1, 2, 3)
	b := NewSiteSet(3, 2, 1)
	if !a.Equal(b) {
		t.Fatal("permuted sets unequal")
	}
	c := NewSiteSet(1, 2)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("different sizes equal")
	}
	d := NewSiteSet(1, 2, 4)
	if a.Equal(d) {
		t.Fatal("different members equal")
	}
	m := a.Minus(c)
	if m.Len() != 1 || !m.Has(3) {
		t.Fatalf("Minus = %v", m)
	}
	if !a.ContainsAll([]SiteID{1, 3}) || a.ContainsAll([]SiteID{1, 9}) {
		t.Fatal("ContainsAll wrong")
	}
}

// Property: the N−UD = PB comparison is exactly set equality of
// (slaves minus UD) and PB, independent of insertion order.
func TestSiteSetMinusEqualProperty(t *testing.T) {
	f := func(slaveRaw, udRaw, pbRaw []uint8) bool {
		slaves := NewSiteSet()
		for _, v := range slaveRaw {
			slaves.Add(SiteID(v%16) + 2)
		}
		ud := NewSiteSet()
		for _, v := range udRaw {
			id := SiteID(v%16) + 2
			if slaves.Has(id) {
				ud.Add(id)
			}
		}
		pb := NewSiteSet()
		for _, v := range pbRaw {
			id := SiteID(v%16) + 2
			if slaves.Has(id) {
				pb.Add(id)
			}
		}
		got := slaves.Minus(ud).Equal(pb)

		// Reference: sorted-slice comparison.
		var want []int
		for _, id := range slaves.IDs() {
			if !ud.Has(id) {
				want = append(want, int(id))
			}
		}
		var have []int
		for _, id := range pb.IDs() {
			have = append(have, int(id))
		}
		sort.Ints(want)
		sort.Ints(have)
		if len(want) != len(have) {
			return got == false
		}
		for i := range want {
			if want[i] != have[i] {
				return got == false
			}
		}
		return got == true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
