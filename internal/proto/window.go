package proto

// Window is the master's UD/PB collection window of §5.3 p1(2), held by
// the termination-protocol master (internal/core, over either substrate).
// The first bounced prepare opens it; UD gathers the slaves whose prepare
// came back undeliverable, PB the slaves whose probe arrived. The paper
// closes it 5T after it opened and aborts iff N − UD = PB (no prepare
// crossed the boundary), else commits.
//
// It also closes early, on complete evidence. The link model delivers a
// frame or returns it, never both, and only a slave holding a prepare
// probes — so UD and PB are disjoint and only grow. Once together they
// cover N, N − UD = PB holds and no later event can change it: that is
// exactly what the 5T expiry would compute, so the master may abort at
// once. Only the abort verdict can come early: a missing probe is
// indistinguishable from a late one until 5T, and an ack cannot stand in
// for a probe because it may predate the cut.
//
// Nor does the master wait for the slaves' own 3T timers to bring the
// probes in: it holds the bounce, so it asks. Solicit names the slaves to
// send a solicit to — those whose ack the master has received and who are
// not yet in UD ∪ PB, each once. A slave still in p answers with an
// ordinary probe, which lands in PB like a timed one. The ack condition is
// load-bearing: a probe in PB must mean that its sender will never commit
// on its own and that the abort will reach it, and it takes the delivered
// ack (j never takes the UD(ack) → commit path) *and* the answer to a
// message sent after the first UD (j's link is open after the cut began)
// to say so. internal/core's package comment has the argument and the
// counterexample for soliciting unacked slaves.
type Window struct {
	ud, pb, asked SiteSet
	collecting    bool
}

// Open reports whether the window is collecting (the master is in p1u).
func (w *Window) Open() bool { return w.collecting }

// UD returns the slaves whose prepare bounced.
func (w *Window) UD() SiteSet { return w.ud }

// PB returns the slaves whose probe arrived.
func (w *Window) PB() SiteSet { return w.pb }

// Bounced records UD(prepare_j). The first one opens the window with
// UD = {j}, PB = ∅ and reports true: the caller starts the 5T timer.
func (w *Window) Bounced(j SiteID) (opened bool) {
	opened = !w.collecting
	if opened {
		w.ud, w.pb, w.asked, w.collecting = NewSiteSet(), NewSiteSet(), NewSiteSet(), true
	}
	w.ud.Add(j)
	return opened
}

// Probed records probe(tid, slave_j).
func (w *Window) Probed(j SiteID) { w.pb.Add(j) }

// Solicit returns, in ascending order, the slaves to send a solicit to
// now: those in acked (the acks the master has received, before or during
// the window) that are in neither UD nor PB and were not returned by an
// earlier call. It is empty while the window is closed. The master calls
// it when the window opens and on every ack that arrives while it is open.
func (w *Window) Solicit(acked SiteSet) []SiteID {
	if !w.collecting {
		return nil
	}
	var out []SiteID
	for _, j := range acked.IDs() {
		if !w.accounted(j) && w.asked.Add(j) {
			out = append(out, j)
		}
	}
	return out
}

// Complete reports whether every slave is accounted for in UD ∪ PB, which
// makes Verdict final before the 5T expiry.
func (w *Window) Complete(slaves []SiteID) bool {
	for _, j := range slaves {
		if !w.accounted(j) {
			return false
		}
	}
	return true
}

func (w *Window) accounted(j SiteID) bool { return w.ud.Has(j) || w.pb.Has(j) }

// Verdict evaluates the paper's rule on the sets collected so far: abort
// if the probes came from exactly the slaves whose prepares were
// delivered (N − UD = PB), commit otherwise — a silent prepare-holder sits
// in G2, so a prepare crossed the boundary.
func (w *Window) Verdict(slaves []SiteID) Outcome {
	if NewSiteSet(slaves...).Minus(w.ud).Equal(w.pb) {
		return Abort
	}
	return Commit
}

// Close ends the collection; the master has decided.
func (w *Window) Close() { w.collecting = false }
