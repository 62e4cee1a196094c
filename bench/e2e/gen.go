package main

import (
	"fmt"
	"sync"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/netnode"
	"termproto/internal/proto"
)

// txnRec is the generator's record of one scheduled transfer. Times are
// wall-clock microseconds, comparable with the daemons' own timestamps:
// everything runs on one host.
type txnRec struct {
	tid      uint64
	master   int
	due      int64 // when the schedule said to send it
	measured bool  // due inside the measured window, not the warm-up

	submitStart, submitEnd int64 // span around Client.Submit
	submitErr              error

	outcome string // "commit", "abort", or "" while undecided
	decided int64  // the master's own decision timestamp
	polls   int
	pollErr error // the last failed poll, if any
}

// stall is an interval in which the host did not run this process: the
// canary goroutine asked to sleep canaryTick and woke more than
// stallAfter late. Wall-clock microseconds.
type stall struct {
	from, to int64
}

const (
	canaryTick = time.Millisecond
	// Injected delays stay under T/2, so only a stall longer than T/2 can
	// push a message past the protocol's delay bound T.
	stallAfter = delayT / 2
)

// watchHost is the canary: it does nothing but sleep, so any lateness it
// sees is the host's (hypervisor steal, a saturated CPU), not the
// program's. It returns the stalls seen until stop is closed. They touch
// no metric: a stall only serves to tell a split decision the host caused
// (the run is discarded and measured again) from one the program caused.
func watchHost(stop <-chan struct{}) []stall {
	var out []stall
	prev := time.Now()
	for {
		select {
		case <-stop:
			return out
		default:
		}
		time.Sleep(canaryTick)
		now := time.Now()
		if now.Sub(prev)-canaryTick > stallAfter {
			out = append(out, stall{from: micro(prev), to: micro(now)})
		}
		prev = now
	}
}

// stalledDuring reports whether any stall overlaps [from, to].
func stalledDuring(stalls []stall, from, to int64) bool {
	for _, s := range stalls {
		if s.from <= to && s.to >= from {
			return true
		}
	}
	return false
}

// traffic is everything one leg's generator goroutines recorded.
type traffic struct {
	txns   []*txnRec
	onsets []onset
	stalls []stall

	pollUS    sample // span around each Client.Txn call
	faultErr  error
	undecided int
}

const (
	firstPollAfter = 5 * delayT / 2 // most transactions are decided by then
	repollEvery    = delayT
	drainAfterLast = 20 * delayT
	drainAfterHeal = 2 * time.Second
)

func micro(t time.Time) int64 { return t.UnixMicro() }

func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// drive runs one leg's traffic against c: a submit goroutine that sends
// each arrival when it is due, a collector goroutine that polls masters
// lazily for decisions, and — on a workload with cuts — a fault goroutine.
// Arrivals due at or after start+warm count as measured. Closing stop
// abandons the leg (used when an error cuts it short).
// drive returns once every transaction is decided or the drain deadline
// has passed.
func drive(c *cluster, w workload, arrivals []arrival, start time.Time, warm time.Duration, stop <-chan struct{}) *traffic {
	tr := &traffic{txns: make([]*txnRec, len(arrivals))}
	// Register every transaction before any goroutine starts, so the
	// ledger is never written concurrently.
	for i, a := range arrivals {
		tid := c.nextTID
		c.nextTID++
		c.ledger[tid] = a.ops()
		tr.txns[i] = &txnRec{
			tid: tid, master: a.master,
			due:      micro(start.Add(a.dueOffset)),
			measured: a.dueOffset >= warm,
		}
	}
	var total time.Duration
	if n := len(arrivals); n > 0 {
		total = arrivals[n-1].dueOffset
	}

	// Sized to the number of sends: the submitter never waits on the
	// collector.
	submitted := make(chan *txnRec, len(arrivals))
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // submitter
		defer wg.Done()
		defer close(submitted)
		for i, a := range arrivals {
			rec := tr.txns[i]
			if !sleepUntil(start.Add(a.dueOffset), stop) {
				return
			}
			req := netnode.SubmitReq{TID: rec.tid, Master: a.master, Sites: roster, Payload: engine.EncodeOps(a.ops())}
			rec.submitStart = micro(time.Now())
			err := c.clients[a.master].Submit(req)
			rec.submitEnd = micro(time.Now())
			rec.submitErr = err
			submitted <- rec
		}
	}()

	var lastHeal time.Time
	if w.cut {
		cuts := cutSchedule(total)
		if n := len(cuts); n > 0 {
			lastHeal = start.Add(cuts[n-1].heal)
		}
		wg.Add(1)
		go func() { // fault injector
			defer wg.Done()
			for _, cw := range cuts {
				if !sleepUntil(start.Add(cw.onset), stop) {
					return
				}
				begun := time.Now()
				if err := c.net.Partition(cutSite); err != nil {
					tr.faultErr = fmt.Errorf("partition: %w", err)
					return
				}
				tr.onsets = append(tr.onsets, onset{begun: micro(begun), applied: micro(time.Now())})
				if !sleepUntil(start.Add(cw.heal), stop) {
					return // an abandoned leg's daemons are about to be killed
				}
				if err := c.net.Heal(); err != nil {
					tr.faultErr = fmt.Errorf("heal: %w", err)
					return
				}
			}
		}()
	}
	deadline := start.Add(total + drainAfterLast)
	if d := lastHeal.Add(drainAfterHeal); d.After(deadline) {
		deadline = d
	}
	wg.Add(1)
	go func() { // collector
		defer wg.Done()
		collect(c, tr, submitted, deadline, stop)
	}()

	watching := make(chan struct{})
	watched := make(chan []stall, 1)
	go func() { watched <- watchHost(watching) }()
	wg.Wait()
	close(watching)
	tr.stalls = <-watched
	return tr
}

// collect polls each submitted transaction's master for its decision:
// first at due+firstPollAfter, then every repollEvery. Latency is read
// from the master's own decision timestamp, so polling late costs
// nothing but the collector's memory.
func collect(c *cluster, tr *traffic, submitted <-chan *txnRec, deadline time.Time, stop <-chan struct{}) {
	type pending struct {
		rec *txnRec
		at  time.Time
	}
	var first *pending // next never-polled transaction; times rise with due
	var again []pending
	open := true
	for {
		if first == nil && open {
			// Block for the next submission only when nothing else is
			// waiting to be polled.
			var rec *txnRec
			if len(again) == 0 {
				select {
				case rec, open = <-submitted:
				case <-stop:
					return
				}
			} else {
				select {
				case rec, open = <-submitted:
				default:
				}
			}
			if rec != nil {
				if rec.submitErr != nil {
					continue
				}
				first = &pending{rec, time.UnixMicro(rec.due).Add(firstPollAfter)}
			}
		}
		var next pending
		switch {
		case first != nil && (len(again) == 0 || first.at.Before(again[0].at)):
			next, first = *first, nil
		case len(again) > 0:
			next, again = again[0], again[1:]
		default:
			return // the submitter is done and nothing is left to poll
		}
		if next.at.After(deadline) {
			next.at = deadline
		}
		if !sleepUntil(next.at, stop) {
			return
		}
		t0 := time.Now()
		dto, err := c.clients[next.rec.master].Txn(proto.TxnID(next.rec.tid))
		now := time.Now()
		tr.pollUS.add(float64(now.Sub(t0).Microseconds()))
		next.rec.polls++
		switch {
		case err != nil:
			next.rec.pollErr = err
		case dto.Outcome != "none":
			next.rec.outcome = dto.Outcome
			next.rec.decided = dto.DecidedAtMicro
			continue
		}
		if !now.Before(deadline) {
			tr.undecided++
			continue
		}
		again = append(again, pending{next.rec, now.Add(repollEvery)})
	}
}
