package proto

// Window is the master's UD/PB collection window of §5.3 p1(2), shared by
// every termination-protocol master (internal/core, fourpc). The first
// bounced prepare opens it; UD gathers the slaves whose prepare came back
// undeliverable, PB the slaves whose probe arrived. The paper closes it
// 5T after it opened and aborts iff N − UD = PB (no prepare crossed the
// boundary), else commits.
//
// It also closes early, on complete evidence. The link model delivers a
// frame or returns it, never both, and only a slave holding a prepare
// probes — so UD and PB are disjoint and only grow. Once together they
// cover N, N − UD = PB holds and no later event can change it: that is
// exactly what the 5T expiry would compute, so the master may abort at
// once. Only the abort verdict can come early: a missing probe is
// indistinguishable from a late one until 5T, and an ack cannot stand in
// for a probe because it may predate the cut.
type Window struct {
	ud, pb     SiteSet
	collecting bool
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
		w.ud, w.pb, w.collecting = NewSiteSet(), NewSiteSet(), true
	}
	w.ud.Add(j)
	return opened
}

// Probed records probe(tid, slave_j).
func (w *Window) Probed(j SiteID) { w.pb.Add(j) }

// Complete reports whether every slave is accounted for in UD ∪ PB, which
// makes Verdict final before the 5T expiry.
func (w *Window) Complete(slaves []SiteID) bool {
	for _, j := range slaves {
		if !w.ud.Has(j) && !w.pb.Has(j) {
			return false
		}
	}
	return true
}

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
