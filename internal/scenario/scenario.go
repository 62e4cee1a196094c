// Package scenario provides the Section 6 case taxonomy of Huang & Li
// (ICDE 1987), a trace-driven classifier that assigns a completed run to
// its case, sweep generators for the experiment harness, and latency
// measurements for the Figure 5/6/7/9 timing analyses.
//
// Section 6 enumerates the possible fates of the protocol's message rounds
// at the boundary B:
//
//	(1)       no prepare passes B
//	(2)       some but not all prepares pass B
//	  (2.1)     … and some ack does not pass B
//	  (2.2)     … and all acks (from G2 prepare-holders) pass B
//	    (2.2.1)   … and some probe does not pass B
//	    (2.2.2)   … and all probes pass B               (transient only)
//	(3)       all prepares pass B
//	  (3.1)     … and some ack does not pass B
//	  (3.2)     … and all acks pass B
//	    (3.2.1)   … and all commits pass B
//	    (3.2.2)   … and some commit does not pass B
//	      (3.2.2.1)  … and some probe does not pass B
//	      (3.2.2.2)  … and all probes pass B            (transient only)
//
// The paper bounds the wait after a slave's p-state timeout per case at
// T, 4T, 5T, T, 4T and ∞ respectively — the ∞ of case 3.2.2.2 being what
// the §6 transient fix (commit after 5T of silence) repairs.
package scenario

import (
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Case is a Section 6 partition case label.
type Case string

// Section 6 cases. CaseNone means no partition affected the run.
const (
	CaseNone Case = "-"
	Case1    Case = "1"
	Case21   Case = "2.1"
	Case221  Case = "2.2.1"
	Case222  Case = "2.2.2"
	Case31   Case = "3.1"
	Case321  Case = "3.2.1"
	Case3221 Case = "3.2.2.1"
	Case3222 Case = "3.2.2.2"
)

// Bound returns the paper's worst-case wait after a slave's p-timeout for
// this case, as a multiple of T, and whether the case is bounded at all
// (case 3.2.2.2 is unbounded under the original protocol).
func (c Case) Bound() (mult int, bounded bool) {
	switch c {
	case Case21, Case31:
		return 1, true
	case Case221, Case3221:
		return 4, true
	case Case222:
		return 5, true
	case Case3222:
		return 0, false
	default:
		return 0, true
	}
}

// Classify assigns a completed run's trace to its Section 6 case.
// masterID identifies the master site for separating the master's commit
// round from slave-initiated commit broadcasts.
func Classify(rec *trace.Recorder, masterID int) Case {
	if rec == nil {
		return CaseNone
	}
	crossAttempted := 0
	for _, e := range rec.Events() {
		if (e.Kind == trace.Deliver || e.Kind == trace.Bounce || e.Kind == trace.Drop) && e.Cross {
			crossAttempted++
		}
	}
	if crossAttempted == 0 {
		return CaseNone
	}

	prepPass := rec.CrossDelivered("prepare")
	prepFail := rec.CrossFailed("prepare")
	ackFail := rec.CrossFailed("ack")

	// The case table's probes are the slave → master ones and its commits
	// the master's own round; the master's solicit, and anything else
	// travelling the other way, is neither.
	probeFail, masterCommitFail := 0, 0
	for _, e := range rec.Events() {
		if (e.Kind != trace.Bounce && e.Kind != trace.Drop) || !e.Cross {
			continue
		}
		switch {
		case e.MsgKind == "probe" && e.To == masterID:
			probeFail++
		case e.MsgKind == "commit" && e.From == masterID:
			masterCommitFail++
		}
	}

	switch {
	case prepPass == 0:
		return Case1
	case prepFail > 0: // case 2: some pass, some do not
		if ackFail > 0 {
			return Case21
		}
		if probeFail > 0 {
			return Case221
		}
		return Case222
	default: // case 3: all prepares pass
		if ackFail > 0 {
			return Case31
		}
		if masterCommitFail == 0 {
			return Case321
		}
		if probeFail > 0 {
			return Case3221
		}
		return Case3222
	}
}

// PhaseWait is a measured wait: a site entered a waiting phase at Enter and
// decided at Decide (Decided false if it never did).
type PhaseWait struct {
	Site    int
	Enter   sim.Time
	Decide  sim.Time
	Decided bool
}

// Wait returns the waiting span; undecided sites return -1.
func (w PhaseWait) Wait() sim.Duration {
	if !w.Decided {
		return -1
	}
	return sim.Duration(w.Decide - w.Enter)
}

// WaitsAfter returns, for every site that transitioned into the given
// state, the span from that transition to the site's decision — the
// quantity Figures 7 and 9 bound (state "wt" for the 6T analysis, "pt" for
// the 5T analysis).
func WaitsAfter(rec *trace.Recorder, state string) []PhaseWait {
	if rec == nil {
		return nil
	}
	enter := make(map[int]sim.Time)
	decide := make(map[int]sim.Time)
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.Transition:
			if e.ToState == state {
				if _, seen := enter[e.Site]; !seen {
					enter[e.Site] = e.At
				}
			}
		case trace.Decide:
			if _, seen := decide[e.Site]; !seen {
				decide[e.Site] = e.At
			}
		}
	}
	var out []PhaseWait
	for site, at := range enter {
		w := PhaseWait{Site: site, Enter: at}
		if d, ok := decide[site]; ok && d >= at {
			w.Decide, w.Decided = d, true
		}
		out = append(out, w)
	}
	return out
}

// MaxWaitAfter returns the maximum decided wait after entering state, and
// whether any site entered it. Undecided sites are reported via the bool
// only if none decided.
func MaxWaitAfter(rec *trace.Recorder, state string) (max sim.Duration, entered bool) {
	ws := WaitsAfter(rec, state)
	if len(ws) == 0 {
		return 0, false
	}
	max = -1
	for _, w := range ws {
		if d := w.Wait(); d > max {
			max = d
		}
	}
	return max, true
}

// FirstUDPrepareToLastProbe measures the Figure 6 window: the span from
// the master's first bounced prepare to the last probe delivered to it
// (slave → master only; the master's own solicit is not a probe).
// ok is false if the run contains no bounced prepare.
func FirstUDPrepareToLastProbe(rec *trace.Recorder, masterID int) (span sim.Duration, ok bool) {
	firstUD, haveUD := rec.FirstTime(func(e trace.Event) bool {
		return e.Kind == trace.Bounce && e.MsgKind == "prepare" && e.From == masterID
	})
	if !haveUD {
		return 0, false
	}
	lastProbe, haveProbe := rec.LastTime(func(e trace.Event) bool {
		return e.Kind == trace.Deliver && e.MsgKind == "probe" && e.To == masterID
	})
	if !haveProbe || lastProbe < firstUD {
		return 0, true
	}
	return sim.Duration(lastProbe - firstUD), true
}
