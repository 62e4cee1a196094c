package netnode

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"termproto/internal/proto"
	siterun "termproto/internal/site"
	"termproto/internal/trace"
)

// linkPair is sites 1 and 2 joined by one kind of link: what each end
// delivers to its site, the wire events both ends traced, and a way to
// take site 2 down.
type linkPair struct {
	links  [2]*siterun.Link
	inbox  [2]chan proto.Msg
	kill2  func()
	mu     sync.Mutex
	events []trace.Event
}

func (p *linkPair) record(ev trace.Event) {
	ev.At = 0 // wall time: the one field two runs cannot share
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

func newLinkPair() *linkPair {
	p := &linkPair{}
	for i := range p.inbox {
		p.inbox[i] = make(chan proto.Msg, 16)
	}
	return p
}

// inProcessPair joins the two sites in-process: put is a hand-off to the
// destination's Link, with no TCP in between.
func inProcessPair(t *testing.T) *linkPair {
	p := newLinkPair()
	var mu sync.Mutex
	up := map[proto.SiteID]*siterun.Link{}
	for i := range p.links {
		inbox := p.inbox[i]
		l := siterun.NewLink(proto.SiteID(i+1), testT, 7,
			func(m proto.Msg) { inbox <- m },
			func(m proto.Msg) error {
				mu.Lock()
				dst := up[m.To]
				mu.Unlock()
				if dst == nil {
					return errors.New("site down")
				}
				dst.Receive(m)
				return nil
			})
		l.Trace = p.record
		t.Cleanup(l.Close)
		p.links[i], up[proto.SiteID(i+1)] = l, l
	}
	p.kill2 = func() {
		mu.Lock()
		delete(up, 2)
		mu.Unlock()
	}
	return p
}

// tcpPair joins them the way termnode daemons are joined: put is a frame
// written to a loopback socket.
func tcpPair(t *testing.T) *linkPair {
	p := newLinkPair()
	addrs := freePorts(t, 2)
	peers := map[proto.SiteID]string{1: addrs[0], 2: addrs[1]}
	var trs [2]*transport
	for i := range trs {
		inbox := p.inbox[i]
		tr := newTransport(proto.SiteID(i+1), testT, 7, peers, func(m proto.Msg) { inbox <- m }, t.Logf)
		tr.Trace = p.record
		if _, err := tr.listen(peers[proto.SiteID(i+1)]); err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(tr.Close)
		trs[i], p.links[i] = tr, tr.Link
	}
	p.kill2 = func() {
		trs[1].Close()
		time.Sleep(testT) // let site 1 notice the hang-up, as it would a SIGKILL
	}
	return p
}

// TestLinkConformance runs one script over both ways of reaching the far
// side and holds each to the wall-clock network model: a delivery takes
// [T/4, T/2); a blocked link returns the message to its sender, marked
// undeliverable, after twice that; the receiver's own blocklist has no say
// over what the sender's link let cross; a dead peer is silence. Both must
// count and trace the script identically — the backends share the model
// by construction, so what is left to test is the two transports.
func TestLinkConformance(t *testing.T) {
	type observation struct {
		counters [2][4]uint64
		events   []trace.Event
	}
	// Scheduling slack on top of the model's bounds (and the first TCP
	// frame's dial).
	const slack = testT
	expect := func(t *testing.T, ch chan proto.Msg, lo, hi time.Duration, start time.Time) proto.Msg {
		t.Helper()
		select {
		case m := <-ch:
			if el := time.Since(start); el < lo || el >= hi+slack {
				t.Errorf("%s arrived after %v, want [%v, %v)", m, el, lo, hi)
			}
			return m
		case <-time.After(hi + 4*slack):
			t.Fatalf("nothing arrived within %v", hi+4*slack)
			return proto.Msg{}
		}
	}
	silent := func(t *testing.T, p *linkPair) {
		t.Helper()
		select {
		case m := <-p.inbox[0]:
			t.Errorf("site 1 received %s, want silence", m)
		case m := <-p.inbox[1]:
			t.Errorf("site 2 received %s, want silence", m)
		case <-time.After(2 * testT):
		}
	}
	seen := map[string]observation{}
	for name, mk := range map[string]func(*testing.T) *linkPair{"in-process": inProcessPair, "tcp": tcpPair} {
		t.Run(name, func(t *testing.T) {
			p := mk(t)
			msg := proto.Msg{TID: 9, From: 1, To: 2, Kind: proto.MsgYes, Payload: []byte("v")}

			start := time.Now()
			p.links[0].Send(msg)
			if got := expect(t, p.inbox[1], testT/4, testT/2, start); got.Undeliverable || !reflect.DeepEqual(got.Payload, msg.Payload) {
				t.Errorf("delivered %+v, want %+v", got, msg)
			}

			p.links[0].SetBlocked([]proto.SiteID{2}, time.Time{})
			start = time.Now()
			p.links[0].Send(msg)
			if got := expect(t, p.inbox[0], testT/2, testT, start); !got.Undeliverable || got.To != 2 {
				t.Errorf("returned %+v, want the undeliverable copy of %+v", got, msg)
			}
			silent(t, p)
			p.links[0].SetBlocked(nil, time.Time{})

			p.links[1].SetBlocked([]proto.SiteID{1}, time.Time{})
			start = time.Now()
			p.links[0].Send(msg)
			if got := expect(t, p.inbox[1], testT/4, testT/2, start); got.Undeliverable {
				t.Errorf("delivered %+v, want %+v: site 1's link let it cross", got, msg)
			}
			silent(t, p)
			p.links[1].SetBlocked(nil, time.Time{})

			p.kill2()
			p.links[0].Send(msg)
			silent(t, p)

			var obs observation
			for i, l := range p.links {
				s, d, b, x := l.Counters()
				obs.counters[i] = [4]uint64{s, d, b, x}
			}
			if want := [2][4]uint64{{4, 0, 1, 1}, {0, 2, 0, 0}}; obs.counters != want {
				t.Errorf("counters (sent, delivered, bounced, dropped) = %v, want %v", obs.counters, want)
			}
			p.mu.Lock()
			obs.events = p.events
			p.mu.Unlock()
			seen[name] = obs
		})
	}
	if a, b := seen["in-process"], seen["tcp"]; !reflect.DeepEqual(a, b) {
		t.Errorf("the two links disagree:\n in-process %+v\n tcp        %+v", a, b)
	}
}
