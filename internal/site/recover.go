package site

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"termproto/internal/db/engine"
	"termproto/internal/proto"
	"termproto/internal/recovery"
)

// Recovery (internal/recovery) is a step machine on the site's own clock
// and transport, so both backends run it alike and its messages meet the
// paper's network: each is delivered within the bound or returned to its
// sender. A step asks every candidate at once and ends when the answers
// are in or after roundTrip T — the round-trip bound on both clocks (at
// most T each way on the simulator; a link's hop is at most T/2, and a
// bounce is back within T). Close silences a machine a crash cut short.
const roundTrip = 2

// chunkBudget bounds the entries of one snapshot chunk, in bytes — far
// under any transport's frame limit (the TCP codec's is 1 MiB). A chunk
// carries at least one entry.
const chunkBudget = 64 << 10

// pass is one run of the step machine: a restart's Recover or a heal
// edge's RetryInDoubt.
type pass struct {
	st  recovery.Stats
	err error
	// The inquiry step: per unanswered transaction, inquiries not bounced.
	asking map[proto.TxnID]int
	// The catch-up step: the source; the request outstanding, by serial
	// and first key; the donors not bounced until one replied, and it.
	src        recovery.CatchUpSource
	pull       uint64
	from       string
	asked      int
	donor      proto.SiteID
	next, stop func() // the current step's end, and its timer's cancel
}

// Recover runs the site's recovery: replay the log, ask each in-doubt
// transaction's roster for its decision, pull each catch-up source from
// its first donor to answer, checkpoint; done gets the stats. Call it on
// the goroutine that steps the node, before the node takes any message:
// until done the site donates no snapshot, since its state may lack
// commits it missed and a puller would take their absence for deletes.
func (n *Node) Recover(done func(recovery.Stats, error)) {
	if n.eng == nil {
		done(recovery.Stats{}, fmt.Errorf("recovery: site %d has no engine", n.self))
		return
	}
	n.serving = false
	info, err := n.eng.RecoverInPlace()
	if err != nil {
		done(recovery.Stats{}, fmt.Errorf("recovery: %w", err))
		return
	}
	all, srcs := n.plan()
	// Serials from the restart's instant: no earlier incarnation's match.
	p := &pass{st: recovery.Stats{Replayed: info.Replayed, InDoubt: len(info.InDoubt)}, pull: uint64(n.clock.Now())}
	n.rec = p
	n.inquire(p, all, info.InDoubt, func() {
		n.catchUp(p, srcs, func() {
			if p.err == nil {
				p.err = n.eng.Checkpoint()
			}
			if n.serving = p.err == nil; !n.serving {
				p.err = fmt.Errorf("recovery: %w", p.err)
			}
			n.finish(func() { done(p.st, p.err) })
		})
	})
}

// RetryInDoubt re-runs the inquiry round for what recovery left in doubt
// — the heal edge: the partition that hid every decided participant has
// lifted. done gets the round's stats once it ends; ran is false, and done
// runs at once, when nothing was pending. Asked for while a pass runs, the
// round starts when that pass ends.
func (n *Node) RetryInDoubt(done func(st recovery.Stats, ran bool)) {
	if n.rec != nil {
		n.retries = append(n.retries, done)
		return
	}
	pend := n.Unresolved()
	if len(pend) == 0 {
		done(recovery.Stats{}, false)
		return
	}
	p := &pass{st: recovery.Stats{InDoubt: len(pend)}}
	n.rec = p
	all, _ := n.plan()
	n.inquire(p, all, pend, func() { n.finish(func() { done(p.st, true) }) })
}

// Unresolved lists what recovery left in doubt. Safe from any goroutine.
func (n *Node) Unresolved() []engine.InDoubt {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pending
}

// finish ends the running pass: report runs, then the retries asked for
// meanwhile start as one round.
func (n *Node) finish(report func()) {
	n.rec = nil
	report()
	if waiting := n.retries; len(waiting) > 0 {
		n.retries = nil
		n.RetryInDoubt(func(st recovery.Stats, ran bool) {
			for _, done := range waiting {
				done(st, ran)
			}
		})
	}
}

// inquire asks the roster of each of pend (every site when its log kept
// none) and ends once each is answered or has no inquiry left in flight,
// or after a round trip. What is left stays pending.
func (n *Node) inquire(p *pass, all []proto.SiteID, pend []engine.InDoubt, next func()) {
	p.asking = make(map[proto.TxnID]int, len(pend))
	for _, d := range pend {
		roster := d.Sites
		if len(roster) == 0 {
			roster = all
		}
		for _, peer := range slices.Sorted(slices.Values(roster)) {
			if peer != n.self {
				n.Table.out.Send(proto.Msg{TID: proto.TxnID(d.TID), From: n.self, To: peer, Kind: proto.MsgInquire})
				p.asking[proto.TxnID(d.TID)]++
			}
		}
	}
	end := func() {
		p.asking = nil
		var left []engine.InDoubt
		for _, d := range pend {
			if o, _ := n.eng.Outcome(d.TID); o == proto.None {
				left = append(left, d)
			}
		}
		p.st.Unresolved = len(left)
		n.mu.Lock()
		n.pending = left
		n.mu.Unlock()
		next()
	}
	if n.arm(p, end); len(p.asking) == 0 {
		n.advance(p)
	}
}

// catchUp pulls each source in turn, then runs next.
func (n *Node) catchUp(p *pass, srcs []recovery.CatchUpSource, next func()) {
	for len(srcs) > 0 && p.err == nil {
		p.src, srcs = srcs[0], srcs[1:]
		p.from, p.asked, p.donor = "", 0, 0
		p.pull++
		for _, donor := range p.src.Donors {
			if donor != n.self {
				n.send(donor, snapMsg{Req: true, Pull: p.pull})
				p.asked++
			}
		}
		if p.asked > 0 {
			n.arm(p, func() { n.catchUp(p, srcs, next) })
			return
		}
	}
	next()
}

// arm makes next the end of the current step: when advance is called, or
// a round trip from now.
func (n *Node) arm(p *pass, next func()) {
	if p.stop != nil {
		p.stop()
	}
	p.next, p.stop = next, n.Table.site.Clock.AfterFunc(roundTrip*n.clock.T(), func() { n.advance(p) })
}

// advance ends the current step.
func (n *Node) advance(p *pass) {
	p.stop()
	next := p.next
	p.next, p.stop = nil, nil
	next()
}

// recoveryMsg takes the node's recovery traffic — snapshot frames, answers
// to its inquiries and its inquiries returned — and reports whether m was
// some.
func (n *Node) recoveryMsg(m proto.Msg) bool {
	p := n.rec
	switch {
	case m.Kind == proto.MsgSnapshot:
		n.snapshot(p, m)
		return true
	case p == nil || p.asking == nil:
		return false
	case m.Kind == proto.MsgInquire && m.Undeliverable:
		if left, ok := p.asking[m.TID]; ok {
			if p.asking[m.TID] = left - 1; left == 1 {
				delete(p.asking, m.TID)
			}
		}
	case (m.Kind == proto.MsgCommit || m.Kind == proto.MsgAbort) && !m.Undeliverable:
		if _, ok := p.asking[m.TID]; !ok {
			return false
		}
		delete(p.asking, m.TID)
		if m.Kind == proto.MsgCommit {
			n.eng.Commit(m.TID)
			p.st.ResolvedCommit++
		} else {
			n.eng.Abort(m.TID)
			p.st.ResolvedAbort++
		}
	default:
		return false
	}
	if len(p.asking) == 0 {
		n.advance(p)
	}
	return true
}

// snapshot takes a MsgSnapshot. A request is answered with the chunk from
// its key on, unless this site's own recovery is not done or it has no
// engine. A chunk or returned request counts only for the request
// outstanding: before a donor has replied, the source ends once every
// request came back; after, the donor that replied serves it alone.
func (n *Node) snapshot(p *pass, m proto.Msg) {
	var s snapMsg
	switch err := json.Unmarshal(m.Payload, &s); {
	case err != nil:
		n.note(0, "snapshot from site %d: %v", m.From, err)
	case s.Req && !m.Undeliverable:
		if n.eng != nil && n.serving {
			n.send(m.From, chunk(s, n.eng))
		}
	case p == nil || p.next == nil || s.Pull != p.pull || m.Undeliverable != s.Req:
		// Not an answer to the request outstanding, or a donated chunk lost.
	case m.Undeliverable:
		if p.donor == m.To || p.donor == 0 && p.asked == 1 {
			n.advance(p)
		} else if p.donor == 0 {
			p.asked--
		}
	case p.donor == 0 || p.donor == m.From:
		n.apply(p, m.From, s)
	}
}

// apply reconciles one chunk through engine.CatchUp, scoped to the
// chunk's key range — so a key absent from it means deleted only inside
// that range — and asks its donor for the next, or ends the source.
func (n *Node) apply(p *pass, donor proto.SiteID, c snapMsg) {
	p.donor = donor
	snap, unstable := make(map[string][]byte), make(map[string]bool)
	last := p.from
	for _, e := range c.Entries {
		if last = string(e.Key); e.Unstable {
			unstable[last] = true
		} else {
			snap[last] = e.Value
		}
	}
	src, from, more := p.src, p.from, c.More
	changed, err := n.eng.CatchUp(snap, unstable, func(key string) bool {
		return key >= from && (!more || key <= last) && (src.Include == nil || src.Include(key))
	})
	p.st.CaughtUpKeys += changed
	if p.err = err; err != nil || !more || len(c.Entries) == 0 {
		n.advance(p)
		return
	}
	p.from = last + "\x00" // the least key after last
	p.pull++
	n.send(donor, snapMsg{Req: true, Pull: p.pull, From: []byte(p.from)})
	n.arm(p, p.next)
}

// snapMsg is a MsgSnapshot payload, as JSON: a request (Req) for the
// donor's keys from From on, or a chunk answering request Pull — those
// keys in order, each with its committed value or marked unstable, through
// the last entry when More follows and to the end when not.
type snapMsg struct {
	Req     bool `json:",omitempty"`
	Pull    uint64
	From    []byte      `json:",omitempty"`
	Entries []snapEntry `json:",omitempty"`
	More    bool        `json:",omitempty"`
}

type snapEntry struct {
	Key, Value []byte
	Unstable   bool `json:",omitempty"`
}

func (n *Node) send(to proto.SiteID, s snapMsg) {
	payload, _ := json.Marshal(s) // cannot fail: no maps, no cycles
	n.Table.out.Send(proto.Msg{From: n.self, To: to, Kind: proto.MsgSnapshot, Payload: payload})
}

// chunk answers req from eng's stable snapshot: its keys from req.From on,
// in order, until the next would take the chunk past chunkBudget.
func chunk(req snapMsg, eng *engine.Engine) snapMsg {
	snap, unstable := eng.StableSnapshot()
	for k := range unstable {
		snap[k] = nil // an unstable key carries no value
	}
	c, size := snapMsg{Pull: req.Pull}, 0
	for _, k := range slices.Sorted(maps.Keys(snap)) {
		if k < string(req.From) {
			continue
		}
		// Base64 grows a field by a third; the names and quotes are 30 bytes.
		if size += (len(k)+len(snap[k]))*4/3 + 40; len(c.Entries) > 0 && size > chunkBudget {
			c.More = true
			break
		}
		c.Entries = append(c.Entries, snapEntry{Key: []byte(k), Value: snap[k], Unstable: unstable[k]})
	}
	return c
}
