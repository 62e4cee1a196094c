package site

import (
	"fmt"
	"testing"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
)

// crossCut is one cut of a crossing case, set d after the send instant.
type crossCut struct {
	at time.Duration
	s  []proto.SiteID
}

// crossCase is one message 1 → 2 sent at s with delay d, under cuts set in
// order, and the fate simnet.Cross gives it, want after s.
type crossCase struct {
	name string
	f    float64
	mode simnet.Mode
	cuts []crossCut
	// late holds the link's queue goroutine off until every instant has
	// passed.
	late bool
	fate simnet.Fate
	want time.Duration
}

var fates = [...]string{simnet.Deliver: "deliver", simnet.Return: "return", simnet.Drop: "drop"}

// crossD is every case's delay: long enough for the link run to set its
// cuts before the first instant comes.
const crossD = linkT

var crossCases = []crossCase{
	{name: "same side", f: 1, cuts: []crossCut{{crossD / 4, []proto.SiteID{3}}}, fate: simnet.Deliver, want: crossD},
	{name: "one tick before onset", f: 1, cuts: []crossCut{{crossD + 1, []proto.SiteID{2}}}, fate: simnet.Deliver, want: crossD},
	{name: "exactly at onset", f: 1, cuts: []crossCut{{crossD, []proto.SiteID{2}}}, fate: simnet.Return, want: 2 * crossD},
	{name: "exactly at heal", f: 1, cuts: []crossCut{{crossD / 4, []proto.SiteID{2}}, {crossD, nil}}, fate: simnet.Deliver, want: crossD},
	{name: "boundary halfway", f: 0.5, cuts: []crossCut{{crossD / 4, []proto.SiteID{2}}}, fate: simnet.Return, want: crossD},
	{name: "pessimistic drop", f: 1, mode: simnet.Pessimistic, cuts: []crossCut{{crossD / 4, []proto.SiteID{2}}}, fate: simnet.Drop, want: crossD},
	{name: "pending cut superseded by an earlier one", f: 1, cuts: []crossCut{{crossD / 2, []proto.SiteID{2}}, {crossD / 4, nil}}, fate: simnet.Deliver, want: crossD},
	{name: "judged late, by its own instant", f: 1, cuts: []crossCut{{crossD + 1, []proto.SiteID{2}}}, late: true, fate: simnet.Deliver, want: crossD},
}

// Every crossing case, through the rule itself and through a link with a
// scripted draw: the link's queue goroutine and the simulator's scheduler
// judge by one function.
func TestCrossRule(t *testing.T) {
	for _, c := range crossCases {
		t.Run(c.name, func(t *testing.T) {
			const s = 1_000_000
			var cuts simnet.Cuts
			for _, cut := range c.cuts {
				cuts.Set(s+sim.Time(cut.at), cut.s...)
			}
			fate, at := simnet.Cross(s, sim.Duration(crossD), c.f, c.mode, cuts, 1, 2)
			if fate != c.fate || at != s+sim.Time(c.want) {
				t.Errorf("rule: %s at s+%v, want %s at s+%v", fates[fate], time.Duration(at-s), fates[c.fate], c.want)
			}
			// A link meets the boundary on arrival and returns what it
			// cannot deliver.
			if c.f == 1 && c.mode == simnet.Optimistic {
				crossOnLink(t, c)
			}
		})
	}
	cuts := simnet.Cuts{{From: 10, S: []proto.SiteID{2}}}
	if n := testing.AllocsPerRun(100, func() { simnet.Cross(0, 100, 0.5, simnet.Optimistic, cuts, 1, 2) }); n != 0 {
		t.Errorf("Cross allocates %v times a call, want 0", n)
	}
}

// crossOnLink runs c through a link, again if its cuts could not be set
// before their instants.
func crossOnLink(t *testing.T, c crossCase) {
	for try := 0; try < 3; try++ {
		if err := tryCrossOnLink(t, c); err == nil {
			return
		} else if try == 2 {
			t.Fatal(err)
		}
	}
}

func tryCrossOnLink(t *testing.T, c crossCase) error {
	type landed struct {
		m  proto.Msg
		at time.Time
	}
	near, far := make(chan landed, 1), make(chan landed, 1)
	l := newLink(1, 2*crossD, func(m proto.Msg) { near <- landed{m, time.Now()} },
		func(m proto.Msg) error { far <- landed{m, time.Now()}; return nil },
		newWaker(), func() time.Duration { return crossD })
	defer l.Close()
	l.Send(proto.Msg{TID: 1, From: 1, To: 2, Kind: proto.MsgYes})
	l.mu.Lock()
	s := l.epoch.Add(time.Duration(l.q[0].at) - crossD)
	l.mu.Unlock()
	var last time.Duration
	for _, cut := range c.cuts {
		l.SetBlocked(cut.s, s.Add(cut.at))
		last = max(last, cut.at)
	}
	for _, cut := range c.cuts {
		if !time.Now().Before(s.Add(cut.at)) {
			return fmt.Errorf("the cuts took %v to set: the one due at s+%v was late", time.Since(s), cut.at)
		}
	}
	if c.late {
		l.mu.Lock()
		time.Sleep(time.Until(s.Add(last)) + time.Millisecond)
		l.mu.Unlock()
	}
	var got landed
	fate := simnet.Deliver
	select {
	case got = <-far:
	case got = <-near:
		if !got.m.Undeliverable {
			t.Fatalf("link: site 1 received %+v, want its undeliverable copy", got.m)
		}
		fate = simnet.Return
	case <-time.After(time.Second):
		t.Fatal("link: nothing landed within 1s")
	}
	if fate != c.fate {
		t.Errorf("link: %s, want %s", fates[fate], fates[c.fate])
	}
	if early := s.Add(c.want).Sub(got.at); early > 0 {
		t.Errorf("link: landed %v before s+%v", early, c.want)
	}
	return nil
}
