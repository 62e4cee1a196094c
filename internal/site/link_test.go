package site

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

const (
	linkT    = 20 * time.Millisecond
	linkSeed = 7
	// lateTolerance bounds the median lateness of a landing under the OS
	// waker; a runtime timer per message reads ≈500 µs here.
	lateTolerance = 250 * time.Microsecond
)

// landing is one message reaching a site's inbox.
type landing struct {
	m  proto.Msg
	at time.Time
}

// eachWaker runs a link test under the OS waker and under the portable
// one, which every platform but Linux gets. precise says whether the
// lateness tolerance applies: only to a timerfd, and not under -race.
func eachWaker(t *testing.T, test func(t *testing.T, wake func() waker, precise bool)) {
	t.Run("os", func(t *testing.T) { test(t, newWaker, runtime.GOOS == "linux" && !raceEnabled) })
	t.Run("timer", func(t *testing.T) { test(t, func() waker { return newTimerWaker() }, false) })
}

// newLinkPair joins sites 1 and 2 in-process; what lands at site i goes to
// inbox[i-1] with its arrival instant.
func newLinkPair(t *testing.T, wake func() waker) (*[2]*Link, [2]chan landing) {
	var links [2]*Link
	var inbox [2]chan landing
	for i := range links {
		ch := make(chan landing, 512) // above any test's messages in flight
		inbox[i] = ch
		links[i] = newLink(proto.SiteID(i+1), linkT,
			func(m proto.Msg) { ch <- landing{m, time.Now()} },
			func(m proto.Msg) error {
				links[m.To-1].Receive(m)
				return nil
			}, wake(), seededDraw(linkSeed, linkT))
		t.Cleanup(links[i].Close)
	}
	return &links, inbox
}

func recv(t *testing.T, ch chan landing) landing {
	t.Helper()
	select {
	case l := <-ch:
		return l
	case <-time.After(time.Second):
		t.Fatal("nothing landed within 1s")
		return landing{}
	}
}

func expectSilence(t *testing.T, inbox [2]chan landing, d time.Duration) {
	t.Helper()
	select {
	case l := <-inbox[0]:
		t.Errorf("site 1 received %s, want silence", l.m)
	case l := <-inbox[1]:
		t.Errorf("site 2 received %s, want silence", l.m)
	case <-time.After(d):
	}
}

func expectCounters(t *testing.T, l *Link, want [4]uint64) {
	t.Helper()
	s, d, b, x := l.Counters()
	if got := [4]uint64{s, d, b, x}; got != want {
		t.Errorf("site %d counters (sent, delivered, bounced, dropped) = %v, want %v", l.self, got, want)
	}
}

// sendSpaced sends n messages 1 → 2, a millisecond apart so that several
// are queued at once, and returns when each was sent and the delay it
// drew: link 1's generator is replayed from its seed.
func sendSpaced(l *Link, n int) (sentAt []time.Time, drawn []time.Duration) {
	mirror := rand.New(rand.NewSource(linkSeed))
	for i := 0; i < n; i++ {
		drawn = append(drawn, drawDelay(mirror, linkT))
		sentAt = append(sentAt, time.Now())
		l.Send(proto.Msg{TID: proto.TxnID(i), From: 1, To: 2, Kind: proto.MsgYes})
		time.Sleep(time.Millisecond)
	}
	return sentAt, drawn
}

// checkLateness holds every landing to "never before its instant" and,
// when precise, the median to the tolerance.
func checkLateness(t *testing.T, late []time.Duration, precise bool) {
	t.Helper()
	for i, d := range late {
		if d < 0 {
			t.Errorf("message %d landed %v before its drawn instant", i, -d)
		}
	}
	slices.Sort(late)
	median := late[len(late)/2]
	t.Logf("lateness over %d landings: median %v, max %v", len(late), median, late[len(late)-1])
	if precise && median > lateTolerance {
		t.Errorf("median lateness %v, want <= %v", median, lateTolerance)
	}
}

// A message reaches the far side at the instant its link drew: never
// before, and at the median within a quarter of a millisecond after.
func TestLinkCrossesOnTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing")
	}
	eachWaker(t, func(t *testing.T, wake func() waker, precise bool) {
		const n = 300
		links, inbox := newLinkPair(t, wake)
		sentAt, drawn := sendSpaced(links[0], n)
		late := make([]time.Duration, n)
		for range late {
			got := recv(t, inbox[1])
			if d := drawn[got.m.TID]; d < linkT/4 || d >= linkT/2 {
				t.Fatalf("message %d drew %v, outside [T/4, T/2)", got.m.TID, d)
			}
			if want := sim.Duration((linkT/2 - drawn[got.m.TID]) / time.Microsecond); got.m.Slack != want {
				t.Fatalf("message %d crossed with slack %dµs, want T/2 − d = %dµs", got.m.TID, got.m.Slack, want)
			}
			late[got.m.TID] = got.at.Sub(sentAt[got.m.TID]) - drawn[got.m.TID]
		}
		checkLateness(t, late, precise)
		expectCounters(t, links[0], [4]uint64{n, 0, 0, 0})
		expectCounters(t, links[1], [4]uint64{0, n, 0, 0})
	})
}

// A blocked peer returns the sender's copy at twice the drawn delay.
func TestLinkBouncesOnTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing")
	}
	eachWaker(t, func(t *testing.T, wake func() waker, precise bool) {
		const n = 100
		links, inbox := newLinkPair(t, wake)
		links[0].SetBlocked([]proto.SiteID{2}, time.Time{})
		sentAt, drawn := sendSpaced(links[0], n)
		late := make([]time.Duration, n)
		for range late {
			got := recv(t, inbox[0])
			if !got.m.Undeliverable || got.m.To != 2 {
				t.Fatalf("returned %+v, want the undeliverable copy of a message to site 2", got.m)
			}
			late[got.m.TID] = got.at.Sub(sentAt[got.m.TID]) - 2*drawn[got.m.TID]
		}
		checkLateness(t, late, precise)
		expectSilence(t, inbox, linkT)
		expectCounters(t, links[0], [4]uint64{n, 0, n, 0})
		expectCounters(t, links[1], [4]uint64{0, 0, 0, 0})
	})
}

// A blocklist is in force from its instant, whenever the queue goroutine
// gets to judge a crossing: one due exactly at the instant bounces and one
// due a microsecond earlier crosses, though both are judged after it.
func TestLinkCutsAtItsInstant(t *testing.T) {
	eachWaker(t, func(t *testing.T, wake func() waker, _ bool) {
		links, inbox := newLinkPair(t, wake)
		l := links[0]
		at := time.Now().Add(linkT / 4)
		l.SetBlocked([]proto.SiteID{2}, at)
		if slices.Contains(l.BlockedList(), 2) {
			t.Error("site 2 is blocked before the cut's instant")
		}
		l.mu.Lock() // the queue goroutine waits here until after the instant
		d := sim.Duration(linkT / 4)
		l.push(crossing{at: l.instant(at), d: d, m: proto.Msg{TID: 1, From: 1, To: 2}})
		l.push(crossing{at: l.instant(at.Add(-time.Microsecond)), d: d, m: proto.Msg{TID: 2, From: 1, To: 2}})
		time.Sleep(time.Until(at) + time.Millisecond)
		l.mu.Unlock()
		if got := recv(t, inbox[1]); got.m.TID != 2 {
			t.Errorf("site 2 received txn %d, want the one due before the cut", got.m.TID)
		}
		if got := recv(t, inbox[0]); got.m.TID != 1 || !got.m.Undeliverable {
			t.Errorf("site 1 received %+v, want the undeliverable return of the one due at the cut", got.m)
		}
		if !slices.Contains(l.BlockedList(), 2) {
			t.Error("site 2 is not blocked after the cut's instant")
		}
		expectSilence(t, inbox, linkT)
		expectCounters(t, l, [4]uint64{0, 0, 1, 0})
	})
}

// What is queued when a link closes never lands, and neither does what is
// sent afterwards.
func TestLinkCloseIsInert(t *testing.T) {
	eachWaker(t, func(t *testing.T, wake func() waker, _ bool) {
		links, inbox := newLinkPair(t, wake)
		links[1].SetBlocked([]proto.SiteID{1}, time.Time{})
		for i := 0; i < 25; i++ {
			links[0].Send(proto.Msg{TID: proto.TxnID(i), From: 1, To: 2, Kind: proto.MsgYes})
			links[1].Send(proto.Msg{TID: proto.TxnID(i), From: 2, To: 1, Kind: proto.MsgYes})
		}
		links[0].Close()
		links[1].Close()
		links[0].Send(proto.Msg{TID: 99, From: 1, To: 2, Kind: proto.MsgYes})
		expectSilence(t, inbox, 2*linkT)
		expectCounters(t, links[0], [4]uint64{26, 0, 0, 0})
		expectCounters(t, links[1], [4]uint64{25, 0, 0, 0})
	})
}

// A link owns a goroutine and, under the OS waker, a descriptor: Close
// gives both back.
func TestLinkCloseReleases(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // no procfs: the goroutine count is the whole check
		}
		return len(ents)
	}
	eachWaker(t, func(t *testing.T, wake func() waker, _ bool) {
		goroutines, open := runtime.NumGoroutine(), fds()
		for i := 0; i < 200; i++ {
			l := newLink(1, linkT, func(proto.Msg) {}, func(proto.Msg) error { return nil }, wake(), seededDraw(linkSeed, linkT))
			l.Send(proto.Msg{From: 1, To: 2})
			l.Close()
			l.Close()
		}
		// Close returns when the queue goroutine has run its last
		// statement, which is a moment before the runtime stops counting it.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Errorf("%d goroutines after 200 links, %d before", got, goroutines)
		}
		if got := fds(); got > open {
			t.Errorf("%d descriptors open after 200 links, %d before", got, open)
		}
	})
}

// Draws differ by up to T/4, so an entry can be due before the head the
// waker is armed for: it moves the wake-up forward and crosses first.
func TestLinkEarlierEntryOvertakes(t *testing.T) {
	eachWaker(t, func(t *testing.T, wake func() waker, _ bool) {
		links, inbox := newLinkPair(t, wake)
		l := links[0]
		now := time.Now()
		l.mu.Lock()
		l.push(crossing{at: l.instant(now.Add(3 * linkT / 4)), m: proto.Msg{TID: 1, From: 1, To: 2}})
		l.push(crossing{at: l.instant(now.Add(linkT / 4)), m: proto.Msg{TID: 2, From: 1, To: 2}})
		l.mu.Unlock()
		first, second := recv(t, inbox[1]), recv(t, inbox[1])
		if first.m.TID != 2 || second.m.TID != 1 {
			t.Fatalf("landed in order %d, %d; want 2, 1", first.m.TID, second.m.TID)
		}
		if el := first.at.Sub(now); el < linkT/4 || el >= linkT/2 {
			t.Errorf("the entry due at T/4 landed after %v: it waited for the later head's wake-up", el)
		}
		if el := second.at.Sub(now); el < 3*linkT/4 {
			t.Errorf("the entry due at 3T/4 landed after %v", el)
		}
	})
}
