package simnet

import (
	"slices"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Fate is what the network model makes of one message.
type Fate uint8

// Fates.
const (
	Deliver Fate = iota // it lands at its destination
	Return              // its undeliverable copy lands back at its sender
	Drop                // it is lost at the boundary (Pessimistic only)
)

// Cross is the paper's network model (Fig. 4), the one rule both clocks
// judge by: the simulator's Network.Send calls it at send time, from the
// scheduler, and a daemon's site.Link at the crossing instant, from its
// queue goroutine. The rule reads only the cut in force at the crossing
// instant, so for a timeline known in advance the two are one judgement.
//
// A message from → to sent at s with forward delay d reaches the boundary
// at X = s + f·d, where f ∈ (0, 1] is the boundary's position along the
// path (rounded to the nearest instant, and at least one instant after s).
// If cuts does not separate from and to at X, it is delivered at s + d.
// Otherwise it turns around and is back at its sender at s + 2·f·d, within
// the paper's 2T undeliverable-return bound; in the pessimistic model it
// is lost at X instead. A message crossing exactly at an onset is blocked,
// and one crossing exactly at a heal is delivered.
//
// Instants and delays are in any one unit: the simulator's ticks, or a
// link's nanoseconds since its epoch. The caller draws d, and the two
// envelopes differ on purpose. The simulator draws d ∈ (0, T]: its worst
// case meets the paper's bound exactly, and its scheduler lands a message
// due at a timer's deadline before the timer. A daemon draws d from
// [T/4, T/2): real clocks give no such ordering, so the rest of T is
// margin for scheduling jitter, and a return lands within T.
//
// A crashed sender or destination, and a far side that refuses the
// message, are for the caller: the rule knows only the boundary. It
// allocates nothing.
func Cross(s sim.Time, d sim.Duration, f float64, mode Mode, cuts Cuts, from, to proto.SiteID) (Fate, sim.Time) {
	x := s + sim.Time(float64(d)*f+0.5)
	if x <= s {
		x = s + 1
	}
	if !cuts.Blocked(from, to, x) {
		return Deliver, s + sim.Time(d)
	}
	if mode == Pessimistic {
		return Drop, x
	}
	back := x + (x - s) // the same distance back to the sender
	if back <= x {
		back = x + 1
	}
	return Return, back
}

// Cut is one edge of a cut timeline: from instant From on, a message
// between a site in S and a site outside it is blocked, and an empty S
// blocks nothing. The paper's G2 is such a set, and so is a link's
// blocklist, since a site never blocks itself.
type Cut struct {
	From sim.Time
	S    []proto.SiteID
}

// Cuts is a cut timeline, ascending by From: each cut is in force from its
// instant until the next one's, and nothing is cut before the first.
type Cuts []Cut

// Set puts s in force from instant from on. A cut set from that instant or
// later is superseded, so a later onset replaces the boundary in force and
// a heal at or before a pending onset cancels it.
func (c *Cuts) Set(from sim.Time, s ...proto.SiteID) {
	i := len(*c)
	for i > 0 && (*c)[i-1].From >= from {
		i--
	}
	*c = append((*c)[:i], Cut{From: from, S: s})
}

// InForce returns the set in force at instant x.
func (c Cuts) InForce(x sim.Time) []proto.SiteID {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i].From <= x {
			return c[i].S
		}
	}
	return nil
}

// Blocked reports whether a message between a and b crossing at x meets
// the boundary: whether exactly one of them is in the set in force.
func (c Cuts) Blocked(a, b proto.SiteID, x sim.Time) bool {
	s := c.InForce(x)
	return slices.Contains(s, a) != slices.Contains(s, b)
}

// Straddles reports whether some cut on the timeline, past, present or
// pending, separates a and b.
func (c Cuts) Straddles(a, b proto.SiteID) bool {
	for _, cut := range c {
		if slices.Contains(cut.S, a) != slices.Contains(cut.S, b) {
			return true
		}
	}
	return false
}
