package main

import (
	"fmt"
	"path/filepath"

	"termproto/internal/trace"
)

// stages is where one committed transaction's time went, read off the
// daemons' trace. Durations are microseconds. Per-slave stages and hops
// hold one value per slave or message.
type stages struct {
	admit        int64   // due -> master's first send of xact
	slavePrepare []int64 // slave: deliver xact -> send yes
	masterTurn   int64   // master: last deliver yes -> first send prepare
	slaveAck     []int64 // slave: deliver prepare -> send ack
	decide       int64   // master: last deliver ack -> decide
	lockHold     []int64 // slave: send yes -> decide
	hops         []int64 // every send -> deliver of xact, yes, prepare, ack
}

// The commit path's message kinds, by their trace names.
const (
	kXact    = "xact"
	kYes     = "yes"
	kPrepare = "prepare"
	kAck     = "ack"
)

// extractStages computes the stages of one transaction from its trace
// events (any order, all sites mixed). ok is false when the events do
// not show a complete commit round: xact, yes, prepare and ack to and
// from every slave, and the master's decision.
func extractStages(events []trace.Event, master int, dueMicro int64) (st stages, ok bool) {
	type link struct {
		kind     string
		from, to int
	}
	sends := make(map[link]int64)
	delivers := make(map[link]int64)
	decides := make(map[int]int64)
	for _, e := range events {
		at := int64(e.At)
		switch e.Kind {
		case trace.Send:
			l := link{e.MsgKind, e.From, e.To}
			if old, dup := sends[l]; !dup || at < old {
				sends[l] = at
			}
		case trace.Deliver:
			l := link{e.MsgKind, e.From, e.To}
			if old, dup := delivers[l]; !dup || at < old {
				delivers[l] = at
			}
		case trace.Decide:
			if _, dup := decides[e.Site]; !dup {
				decides[e.Site] = at
			}
		}
	}
	masterDecide, found := decides[master]
	if !found {
		return st, false
	}
	var firstXact, lastYes, firstPrepare, lastAck int64
	slaves := 0
	for _, s := range roster {
		if s == master {
			continue
		}
		slaves++
		at := make(map[string][2]int64) // kind -> send, deliver
		for _, l := range []link{
			{kXact, master, s}, {kYes, s, master}, {kPrepare, master, s}, {kAck, s, master},
		} {
			snd, okS := sends[l]
			dlv, okD := delivers[l]
			if !okS || !okD {
				return st, false
			}
			at[l.kind] = [2]int64{snd, dlv}
			st.hops = append(st.hops, dlv-snd)
		}
		st.slavePrepare = append(st.slavePrepare, at[kYes][0]-at[kXact][1])
		st.slaveAck = append(st.slaveAck, at[kAck][0]-at[kPrepare][1])
		if dec, found := decides[s]; found {
			st.lockHold = append(st.lockHold, dec-at[kYes][0])
		}
		if x := at[kXact][0]; slaves == 1 || x < firstXact {
			firstXact = x
		}
		if p := at[kPrepare][0]; slaves == 1 || p < firstPrepare {
			firstPrepare = p
		}
		lastYes = max(lastYes, at[kYes][1])
		lastAck = max(lastAck, at[kAck][1])
	}
	st.admit = firstXact - dueMicro
	st.masterTurn = firstPrepare - lastYes
	st.decide = masterDecide - lastAck
	return st, true
}

// readTraces merges the per-site trace files a traced leg's daemons
// exported at shutdown and groups the events by transaction.
func readTraces(dir string) (map[uint64][]trace.Event, error) {
	byTID := make(map[uint64][]trace.Event)
	for _, id := range roster {
		path := filepath.Join(dir, fmt.Sprintf("node-%d", id), traceFile)
		events, err := trace.ReadJSONLFile(path)
		if err != nil {
			return nil, err
		}
		for _, e := range events {
			byTID[e.TID] = append(byTID[e.TID], e)
		}
	}
	return byTID, nil
}

// stageStats aggregates the stages of many transactions.
type stageStats struct {
	admit, slavePrepare, masterTurn, slaveAck, decide sample
	lockHold, hops                                    sample
	incomplete                                        int
}

func (ss *stageStats) add(st stages) {
	addAll := func(s *sample, xs []int64) {
		for _, x := range xs {
			s.add(float64(x))
		}
	}
	ss.admit.add(float64(st.admit))
	addAll(&ss.slavePrepare, st.slavePrepare)
	ss.masterTurn.add(float64(st.masterTurn))
	addAll(&ss.slaveAck, st.slaveAck)
	ss.decide.add(float64(st.decide))
	addAll(&ss.lockHold, st.lockHold)
	addAll(&ss.hops, st.hops)
}

// sumP50 is the budget check: the stage medians along the commit path —
// admit, four hops, slave prepare, master turn, slave ack, decide — in
// microseconds.
func (ss *stageStats) sumP50() float64 {
	return ss.admit.quantile(0.5) + 4*ss.hops.quantile(0.5) +
		ss.slavePrepare.quantile(0.5) + ss.masterTurn.quantile(0.5) +
		ss.slaveAck.quantile(0.5) + ss.decide.quantile(0.5)
}

// metrics fills m with the node and wire stage metrics and returns the
// budget line: the stage medians' sum against the end-to-end median,
// which must agree within 10% for the breakdown to be trusted.
func (ss *stageStats) metrics(m map[string]float64) string {
	m["node.admit_us_p50"] = ss.admit.quantile(0.5)
	m["node.slave_prepare_us_p50"] = ss.slavePrepare.quantile(0.5)
	m["node.master_turn_us_p50"] = ss.masterTurn.quantile(0.5)
	m["node.slave_ack_us_p50"] = ss.slaveAck.quantile(0.5)
	m["node.decide_us_p50"] = ss.decide.quantile(0.5)
	m["node.lock_hold_ms_p50"] = ss.lockHold.quantile(0.5) / 1000
	m["wire.hop_ms_p50"] = ss.hops.quantile(0.5) / 1000
	m["wire.hop_ms_p95"] = ss.hops.quantile(0.95) / 1000
	// The injected delay is uniform in [T/4, T/2): its median is 3T/8.
	m["wire.hop_excess_us_p50"] = ss.hops.quantile(0.5) - float64((3 * delayT / 8).Microseconds())
	sum := ss.sumP50() / 1000
	m["node.stage_sum_ms"] = sum
	gap := 100 * (ratio(sum, m["commit_p50_ms"]) - 1)
	note := fmt.Sprintf("stage budget: sum of stage p50 %.2f ms vs commit_p50_ms %.2f ms (%+.1f%%) over %d commits, %d with incomplete traces",
		sum, m["commit_p50_ms"], gap, ss.admit.n(), ss.incomplete)
	if gap > 10 || gap < -10 {
		note = "WARNING " + note
	}
	return note
}
