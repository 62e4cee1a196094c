// Package check is the offline history checker: it reads an execution
// trace (an in-memory recording, or a JSONL trace file of termsim or
// termnode) plus, when available, each site's final state and durable
// decisions, and
// verifies the invariants the termination protocol promises:
//
//   - decision agreement — no site commits a transaction another site
//     aborts (the paper's consistency claim);
//   - decision durability — a site never reverses a decision across a
//     crash/recover cycle, and every traced decision is answerable from
//     the site's durable state at quiescence;
//   - §6 termination bounds — per transaction, the run is classified into
//     its Section 6 case (internal/scenario) and a slave's wait after
//     entering the prepared state must respect the case's bound;
//   - replica convergence — at quiescence every replica of a key agrees
//     on its value;
//   - conservation — transfers move money, never create it.
//
// Each violation carries the offending transaction's event sub-history,
// so a failure is replayable and debuggable from the report alone. Every
// cluster run is judged by it, on either backend: cluster.Judge applies
// it to a run's evidence (Cluster.Evidence) and adds the result-level
// rules, and Cluster.Verify, chaos.Verify — the corpus, the hand-written
// rows, each termsim run — and the examples all go through Judge.
package check

import (
	"fmt"
	"sort"

	"termproto/internal/db/engine"
	"termproto/internal/scenario"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Rule names one verified invariant.
type Rule string

// The verified invariants.
const (
	RuleAgreement    Rule = "decision-agreement"
	RuleDurability   Rule = "decision-durability"
	RuleBound        Rule = "termination-bound"
	RuleConvergence  Rule = "replica-convergence"
	RuleConservation Rule = "conservation"
)

// Violation is one invariant breach.
type Violation struct {
	Rule Rule
	// TID is the offending transaction (0 for non-transactional rules:
	// convergence, conservation).
	TID uint64
	// Site is the offending site when the rule localizes to one (0 otherwise).
	Site int
	// Detail is a human-readable account of the breach.
	Detail string
	// Events is the offending transaction's event sub-history (empty for
	// non-transactional rules) — the replay/debug payload.
	Events []trace.Event
}

// String renders the violation without the sub-history.
func (v Violation) String() string {
	s := string(v.Rule)
	if v.TID != 0 {
		s += fmt.Sprintf(" txn=%d", v.TID)
	}
	if v.Site != 0 {
		s += fmt.Sprintf(" site=%d", v.Site)
	}
	return s + ": " + v.Detail
}

// boundSlackT is what the bound rule adds to a §6 case bound, in
// multiples of T. The paper states its bounds in idealized timeout
// periods; the implementation's prepared-state probe and master p1u
// retries run on a 5T cadence, so a decision that is one probe round
// late is normal operation (a probe sent just before the partition onset
// is lost, the next fires 5T later), plus one T for message-latency
// tails. Waits beyond cadence + bound indicate a genuinely stuck site.
const boundSlackT = 6.0

// Conservation parameterizes the workload-conservation rule: summing the
// authoritative copy of every listed key must yield Total, and no listed
// key may be negative at any site — a sum cannot see an overdraft that
// concurrent debits made.
type Conservation struct {
	// Keys are the account keys to sum.
	Keys []string
	// Primary maps a key to the site whose snapshot is authoritative for
	// it (under sharding, the shard's primary replica).
	Primary func(key string) int
	// Total is the expected sum (accounts × initial balance).
	Total int64
}

// Input is one run's evidence. Only Events is mandatory: the trace-level
// rules (agreement, durability, bounds) run on any trace; the state-level
// rules (convergence, conservation, durable-answer) engage only when the
// corresponding snapshot evidence is present.
type Input struct {
	// Events is the merged execution trace, in timeline order.
	Events []trace.Event
	// T is the protocol timeout period in ticks; 0 means sim.DefaultT.
	T sim.Duration
	// SkipBounds disables the §6 bound rule (real-network traces, whose
	// timing is not tick-deterministic).
	SkipBounds bool
	// Masters maps TID to coordinating site. Transactions without an
	// entry fall back to the sender of the first xact message; if neither
	// is known the transaction's bound check is skipped (its case cannot
	// be classified).
	Masters map[uint64]int
	// Snapshots is each site's committed state at quiescence (key→value);
	// nil disables convergence and conservation.
	Snapshots map[int]map[string][]byte
	// Unstable flags, per site, keys still held by in-flight transactions
	// there — excluded from convergence (their committed value is not
	// authoritative yet).
	Unstable map[int]map[string]bool
	// Replicas maps a key to the sites that must agree on it; nil means
	// every snapshotted site (full replication).
	Replicas func(key string) []int
	// Durable is each site's durable decision map at quiescence
	// (TID→"commit"/"abort"), read from what the site's log holds
	// (Cluster.Evidence replays it); nil disables the durable-answer half
	// of the durability rule, and a site without an entry is not checked.
	Durable map[int]map[uint64]string
	// Conservation enables the conservation rule.
	Conservation *Conservation
}

// SubHistory extracts one transaction's events from a trace, preserving
// order — the replay payload attached to transactional violations.
func SubHistory(events []trace.Event, tid uint64) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.TID == tid {
			out = append(out, e)
		}
	}
	return out
}

// Check verifies every engaged invariant and returns the violations found
// (nil when the run is clean), ordered by rule then TID.
func Check(in Input) []Violation {
	var out []Violation
	out = append(out, checkAgreement(in)...)
	out = append(out, checkDurability(in)...)
	if !in.SkipBounds {
		out = append(out, checkBounds(in)...)
	}
	out = append(out, checkConvergence(in)...)
	out = append(out, checkConservation(in)...)
	return out
}

// tids returns the transaction IDs appearing in the trace, ascending,
// excluding the non-transactional TID 0 (partition, crash and network events).
func tids(events []trace.Event) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, e := range events {
		if e.TID != 0 && !seen[e.TID] {
			seen[e.TID] = true
			out = append(out, e.TID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgreement flags any transaction one site decided commit and
// another decided abort — the protocol's core safety claim.
func checkAgreement(in Input) []Violation {
	type decision struct {
		commit, abort []int
	}
	byTID := make(map[uint64]*decision)
	seen := make(map[[2]uint64]bool) // (tid, site) pairs already counted
	for _, e := range in.Events {
		if e.Kind != trace.Decide || e.TID == 0 {
			continue
		}
		key := [2]uint64{e.TID, uint64(e.Site)}
		if seen[key] {
			continue // re-decisions are the durability rule's business
		}
		seen[key] = true
		d := byTID[e.TID]
		if d == nil {
			d = &decision{}
			byTID[e.TID] = d
		}
		switch e.Outcome {
		case "commit":
			d.commit = append(d.commit, e.Site)
		case "abort":
			d.abort = append(d.abort, e.Site)
		}
	}
	var out []Violation
	for _, tid := range tids(in.Events) {
		d := byTID[tid]
		if d == nil || len(d.commit) == 0 || len(d.abort) == 0 {
			continue
		}
		sort.Ints(d.commit)
		sort.Ints(d.abort)
		out = append(out, Violation{
			Rule: RuleAgreement, TID: tid,
			Detail: fmt.Sprintf("sites %v committed while sites %v aborted", d.commit, d.abort),
			Events: SubHistory(in.Events, tid),
		})
	}
	return out
}

// checkDurability flags (a) a site re-deciding a transaction differently
// than its first decision — a decision lost and reversed across a
// crash/recover cycle — and (b), when the durable decision maps are
// provided, any traced decision that is missing from or contradicted by
// the site's durable state at quiescence.
func checkDurability(in Input) []Violation {
	first := make(map[[2]uint64]string) // (tid, site) → first traced outcome
	var out []Violation
	for _, e := range in.Events {
		if e.Kind != trace.Decide || e.TID == 0 {
			continue
		}
		key := [2]uint64{e.TID, uint64(e.Site)}
		prev, ok := first[key]
		if !ok {
			first[key] = e.Outcome
			continue
		}
		if prev != e.Outcome {
			out = append(out, Violation{
				Rule: RuleDurability, TID: e.TID, Site: e.Site,
				Detail: fmt.Sprintf("site decided %s after earlier deciding %s", e.Outcome, prev),
				Events: SubHistory(in.Events, e.TID),
			})
		}
	}
	if in.Durable != nil {
		keys := make([][2]uint64, 0, len(first))
		for k := range first {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			tid, site := k[0], int(k[1])
			durable, ok := in.Durable[site]
			if !ok {
				continue // no durable evidence for this site (e.g. no engine)
			}
			got, have := durable[tid]
			switch {
			case !have:
				out = append(out, Violation{
					Rule: RuleDurability, TID: tid, Site: site,
					Detail: fmt.Sprintf("decision %s not durable at quiescence", first[k]),
					Events: SubHistory(in.Events, tid),
				})
			case got != first[k]:
				out = append(out, Violation{
					Rule: RuleDurability, TID: tid, Site: site,
					Detail: fmt.Sprintf("durable decision %s contradicts traced decision %s", got, first[k]),
					Events: SubHistory(in.Events, tid),
				})
			}
		}
	}
	return out
}

// checkBounds classifies each transaction's sub-history into its §6 case
// and verifies every slave's wait from prepared-state entry to decision
// against the case bound (plus slack). Transactions whose conditions step
// outside the paper's model — more than one partition onset during their
// lifetime, a crash of the waiting site itself, an unclassifiable master
// — are skipped: the §6 analysis assumes a single simple partition.
func checkBounds(in Input) []Violation {
	t := in.T
	if t <= 0 {
		t = sim.DefaultT
	}
	// Partition onsets and per-site crash times, for the skip conditions.
	var onsets []sim.Time
	crashes := make(map[int][]sim.Time)
	for _, e := range in.Events {
		switch e.Kind {
		case trace.PartitionOn:
			onsets = append(onsets, e.At)
		case trace.Crash:
			crashes[e.Site] = append(crashes[e.Site], e.At)
		}
	}
	var out []Violation
	for _, tid := range tids(in.Events) {
		sub := SubHistory(in.Events, tid)
		rec := &trace.Recorder{}
		for _, e := range sub {
			rec.Append(e)
		}
		master, ok := in.Masters[tid]
		if !ok {
			for _, e := range sub {
				if e.Kind == trace.Send && e.MsgKind == "xact" {
					master, ok = e.From, true
					break
				}
			}
		}
		if !ok {
			continue // cannot classify without a master
		}
		c := scenario.Classify(rec, master)
		if c == scenario.CaseNone {
			continue // no cross-boundary traffic: nothing to bound
		}
		mult, bounded := c.Bound()
		if !bounded {
			continue // case 3.2.2.2 is unbounded under the original protocol
		}
		first, last := sub[0].At, sub[len(sub)-1].At
		multi := 0
		for _, at := range onsets {
			if at >= first && at <= last {
				multi++
			}
		}
		if multi > 1 {
			continue // repartitioned mid-flight: outside the simple model
		}
		if mult == 0 {
			// The bound for this case is "no partition-attributable delay":
			// the wait from prepared entry is dominated by ordinary vote
			// collection, which §6 does not bound. Nothing to check.
			continue
		}
		// §6 states its bounds as delay after the partition occurs; clamp
		// each wait's start to the onset inside this transaction's span.
		onset := sim.Time(0)
		for _, at := range onsets {
			if at >= first && at <= last {
				onset = at
			}
		}
		allowed := sim.Duration(float64(mult)*float64(t) + boundSlackT*float64(t))
		for _, w := range scenario.WaitsAfter(rec, "pt") {
			if !w.Decided {
				continue // blocked/crashed sites are the completeness check's business
			}
			start := w.Enter
			if onset > start {
				start = onset
			}
			crashed := false
			for _, at := range crashes[w.Site] {
				if at >= w.Enter && at <= w.Decide {
					crashed = true
					break
				}
			}
			if crashed {
				continue // the site restarted mid-wait; its clock did not run
			}
			if wait := sim.Duration(w.Decide - start); wait > allowed {
				out = append(out, Violation{
					Rule: RuleBound, TID: tid, Site: w.Site,
					Detail: fmt.Sprintf("case %s wait %d ticks exceeds bound %dT+%.0fT slack (= %d ticks)",
						c, wait, mult, boundSlackT, allowed),
					Events: sub,
				})
			}
		}
	}
	return out
}

// checkConvergence verifies that at quiescence every replica of a key
// holds the same committed value. Meta keys (placement epochs) are
// exempt — a site's meta range reflects what it has durably learned — and
// so are keys flagged unstable at any replica (still held by an in-flight
// transaction).
func checkConvergence(in Input) []Violation {
	if len(in.Snapshots) == 0 {
		return nil
	}
	sites := make([]int, 0, len(in.Snapshots))
	for s := range in.Snapshots {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	keySet := make(map[string]bool)
	for _, s := range sites {
		for k := range in.Snapshots[s] {
			if !engine.IsMetaKey(k) {
				keySet[k] = true
			}
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Violation
	for _, k := range keys {
		replicas := sites
		if in.Replicas != nil {
			replicas = append([]int(nil), in.Replicas(k)...)
			sort.Ints(replicas)
		}
		type held struct {
			site  int
			value []byte
			ok    bool
		}
		var views []held
		unstable := false
		for _, s := range replicas {
			snap, have := in.Snapshots[s]
			if !have {
				continue // no evidence for this site
			}
			if in.Unstable[s][k] {
				unstable = true
				break
			}
			v, ok := snap[k]
			views = append(views, held{s, v, ok})
		}
		if unstable || len(views) < 2 {
			continue
		}
		ref := views[0]
		for _, v := range views[1:] {
			if v.ok != ref.ok || string(v.value) != string(ref.value) {
				out = append(out, Violation{
					Rule: RuleConvergence,
					Detail: fmt.Sprintf("key %q diverges: site %d holds %v (present=%v), site %d holds %v (present=%v)",
						k, ref.site, engine.DecodeInt(ref.value), ref.ok, v.site, engine.DecodeInt(v.value), v.ok),
				})
				break
			}
		}
	}
	return out
}

// checkConservation sums the authoritative copy of every account key and
// compares it against the expected total, and flags every account key
// that is negative at any snapshotted site.
func checkConservation(in Input) []Violation {
	c := in.Conservation
	if c == nil || len(in.Snapshots) == 0 {
		return nil
	}
	var out []Violation
	for _, s := range sortedSites(in.Snapshots) {
		for _, k := range c.Keys {
			if v := engine.DecodeInt(in.Snapshots[s][k]); v < 0 {
				out = append(out, Violation{
					Rule:   RuleConservation,
					Detail: fmt.Sprintf("key %q is overdrawn at site %d: %d", k, s, v),
				})
			}
		}
	}
	var total int64
	for _, k := range c.Keys {
		site := 0
		if c.Primary != nil {
			site = c.Primary(k)
		} else {
			for _, s := range sortedSites(in.Snapshots) {
				site = s
				break
			}
		}
		total += engine.DecodeInt(in.Snapshots[site][k])
	}
	if total != c.Total {
		out = append(out, Violation{
			Rule:   RuleConservation,
			Detail: fmt.Sprintf("committed total %d != expected %d over %d keys", total, c.Total, len(c.Keys)),
		})
	}
	return out
}

func sortedSites(snaps map[int]map[string][]byte) []int {
	out := make([]int, 0, len(snaps))
	for s := range snaps {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
