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
// bounce is back within T). A donor that cannot donate refuses at once, so
// only a dead peer, whose requests are dropped in silence, costs the step
// its timer. Close silences a machine a crash cut short.
//
// An answer to an inquiry is an event of its own, not part of a step: a
// decision that lands after the inquiry step ended — a peer that decided
// late, or one a heal brought back in reach — resolves the transaction all
// the same (resolve). The heal edge only asks again (RetryInDoubt).
const roundTrip = 2

// chunkBudget bounds the entries of one snapshot chunk, in bytes — far
// under any transport's frame limit (the TCP codec's is 1 MiB). A chunk
// carries at least one entry.
const chunkBudget = 64 << 10

// pass is one run of the step machine: a restart's Recover.
type pass struct {
	st  recovery.Stats
	err error
	// The inquiry step: per unanswered transaction, inquiries not bounced.
	asking map[proto.TxnID]int
	// The catch-up step: the source; the request outstanding, by serial
	// and first key; the donors not bounced or refusing until one replied,
	// and it.
	src        recovery.CatchUpSource
	pull       uint64
	from       string
	asked      int
	donor      proto.SiteID
	next, stop func() // the current step's end, and its timer's cancel
}

// Recover runs the site's recovery: replay the log, ask each in-doubt
// transaction's roster for its decision, pull each catch-up source from
// its first donor to answer, checkpoint; done gets the stats of this pass
// — what resolves after its inquiry step shows in Unresolved, Txn and the
// trace, not in them. Call it on the goroutine that steps the node, before
// the node takes any message: until done the site refuses every snapshot
// request, since its state may lack commits it missed and a puller would
// take their absence for deletes.
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
	_, srcs := n.plan()
	// Serials from the restart's instant: no earlier incarnation's match.
	p := &pass{st: recovery.Stats{Replayed: info.Replayed, InDoubt: len(info.InDoubt)}, pull: uint64(n.clock.Now())}
	n.rec = p
	n.inquire(p, info.InDoubt, func() {
		n.catchUp(p, srcs, func() {
			if p.err == nil {
				p.err = n.eng.Checkpoint()
			}
			if n.serving = p.err == nil; !n.serving {
				p.err = fmt.Errorf("recovery: %w", p.err)
			}
			n.rec = nil
			done(p.st, p.err)
		})
	})
}

// RetryInDoubt asks again about every transaction still in doubt — the heal
// edge: the partition that hid every decided participant has lifted. It
// sends one MsgInquire to each member of the transaction's roster and
// awaits nothing; an answer resolves the transaction whenever it lands.
// Call it on the goroutine that steps the node.
func (n *Node) RetryInDoubt() { n.ask(n.pending) }

// Unresolved lists the in-doubt transactions this incarnation asked about
// and has not resolved. Safe from any goroutine.
func (n *Node) Unresolved() []engine.InDoubt {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pending
}

// inquire asks about each of pend and ends once each is answered or has no
// inquiry left in flight, or after a round trip. What is left stays in
// doubt, answerable later.
func (n *Node) inquire(p *pass, pend []engine.InDoubt, next func()) {
	p.asking = make(map[proto.TxnID]int, len(pend))
	n.mu.Lock()
	n.pending = pend
	n.mu.Unlock()
	n.ask(pend)
	end := func() {
		p.asking = nil
		p.st.Unresolved = len(n.pending)
		next()
	}
	if n.arm(p, end); len(p.asking) == 0 {
		n.advance(p)
	}
}

// ask sends MsgInquire about each of pend to its roster (every site when
// its log kept none). While the restart's inquiry step runs, each inquiry
// counts as one in flight.
func (n *Node) ask(pend []engine.InDoubt) {
	all, _ := n.plan()
	for _, d := range pend {
		roster := d.Sites
		if len(roster) == 0 {
			roster = all
		}
		for _, peer := range slices.Sorted(slices.Values(roster)) {
			if peer != n.self {
				n.Table.out.Send(proto.Msg{TID: proto.TxnID(d.TID), From: n.self, To: peer, Kind: proto.MsgInquire})
				if p := n.rec; p != nil && p.asking != nil {
					p.asking[proto.TxnID(d.TID)]++
				}
			}
		}
	}
}

// resolve takes a decision that answers an inquiry this incarnation sent,
// about a transaction its engine still holds in doubt, whenever it lands:
// the engine commits or aborts it, it leaves Unresolved with the instant
// recorded for Txn, and a trace note names it, the outcome and the sender.
// Inside the restart's inquiry step it also counts toward that pass. It
// reports whether m was such an answer.
func (n *Node) resolve(m proto.Msg) bool {
	if m.Undeliverable || m.Kind != proto.MsgCommit && m.Kind != proto.MsgAbort {
		return false
	}
	i := slices.IndexFunc(n.pending, func(d engine.InDoubt) bool { return proto.TxnID(d.TID) == m.TID })
	if i < 0 {
		return false
	}
	if o, _ := n.eng.Outcome(uint64(m.TID)); o != proto.None {
		return false
	}
	o := proto.Commit
	if m.Kind == proto.MsgCommit {
		n.eng.Commit(m.TID)
	} else {
		o = proto.Abort
		n.eng.Abort(m.TID)
	}
	n.mu.Lock()
	n.pending = append(n.pending[:i:i], n.pending[i+1:]...) // a new array: readers keep theirs
	n.resolvedAt[m.TID] = n.clock.Now()
	n.mu.Unlock()
	n.note(m.TID, "in doubt resolved: %v from site %d", o, m.From)
	if p := n.rec; p != nil && p.asking != nil {
		if o == proto.Commit {
			p.st.ResolvedCommit++
		} else {
			p.st.ResolvedAbort++
		}
		if _, ok := p.asking[m.TID]; ok {
			if delete(p.asking, m.TID); len(p.asking) == 0 {
				n.advance(p)
			}
		}
	}
	return true
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

// recoveryMsg takes the node's recovery traffic — snapshot frames and its
// inquiries returned while the inquiry step runs — and reports whether m
// was some.
func (n *Node) recoveryMsg(m proto.Msg) bool {
	p := n.rec
	switch {
	case m.Kind == proto.MsgSnapshot:
		n.snapshot(p, m)
		return true
	case p == nil || p.asking == nil || m.Kind != proto.MsgInquire || !m.Undeliverable:
		return false
	}
	if left, ok := p.asking[m.TID]; ok {
		if p.asking[m.TID] = left - 1; left == 1 {
			delete(p.asking, m.TID)
		}
	}
	if len(p.asking) == 0 {
		n.advance(p)
	}
	return true
}

// snapshot takes a MsgSnapshot. A request is answered with the chunk from
// its key on, or refused at once when this site's own recovery is not done
// or it has no engine. A chunk, refusal or returned request counts only for
// the request outstanding, and a refusal counts as its request returned:
// before a donor has replied, the source ends once every request is
// refused or back; after, the donor that replied serves it alone.
func (n *Node) snapshot(p *pass, m proto.Msg) {
	var s snapMsg
	switch err := json.Unmarshal(m.Payload, &s); {
	case err != nil:
		n.note(0, "snapshot from site %d: %v", m.From, err)
	case s.Req && !m.Undeliverable:
		if n.eng != nil && n.serving {
			n.send(m.From, chunk(s, n.eng))
		} else {
			n.send(m.From, snapMsg{Refused: true, Pull: s.Pull})
		}
	case p == nil || p.next == nil || s.Pull != p.pull || m.Undeliverable != s.Req:
		// Not an answer to the request outstanding, or a chunk or refusal lost.
	case m.Undeliverable || s.Refused:
		donor := m.From
		if m.Undeliverable {
			donor = m.To
		}
		if p.donor == donor || p.donor == 0 && p.asked == 1 {
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
// donor's keys from From on; a chunk answering request Pull — those keys
// in order, each with its committed value or marked unstable, through the
// last entry when More follows and to the end when not; or a refusal of
// request Pull (Refused), from a donor still recovering or without a
// database, which carries no entries and must not be read as a chunk.
type snapMsg struct {
	Req     bool `json:",omitempty"`
	Refused bool `json:",omitempty"`
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
