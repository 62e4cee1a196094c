// Package harness is the thin single-transaction entry point to the site
// runtime: it builds one site.Table per site over the scheduler clock and
// the simulated network, submits the transaction to the master at site 1
// (each slave is spawned by its MsgXact envelope, as on a daemon), drives
// the discrete-event scheduler to quiescence, and reports per-site
// outcomes plus the full execution trace. The critical-instant sweeps and
// the timing experiments run through it.
package harness

import (
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/site"
	"termproto/internal/trace"
)

// Voter decides a site's vote when no database participant is attached.
type Voter = proto.Voter

// AllYes votes yes at every site; NoAt votes no at exactly the given
// sites.
var (
	AllYes = proto.AllYes
	NoAt   = proto.NoAt
)

// Participant is a database-side hook: partial execution produces the vote,
// and the decision is applied locally. internal/db/engine implements it.
type Participant = proto.Participant

// Options configures a single-transaction protocol run. Sites are numbered
// 1..N with the master at site 1, matching the paper.
type Options struct {
	N        int
	Protocol proto.Protocol

	// T is the longest end-to-end delay; defaults to sim.DefaultT.
	T sim.Duration
	// Latency defaults to the adversarial Fixed{T}.
	Latency simnet.Latency
	// BoundaryFrac is the partition-boundary position (see simnet).
	BoundaryFrac float64
	Mode         simnet.Mode
	Partition    *simnet.Partition

	// Votes defaults to AllYes. Ignored for sites with a Participant.
	Votes Voter
	// Participants optionally attaches a database engine per site.
	Participants map[proto.SiteID]Participant

	// Crash marks sites as failed from the given time (experiment E15).
	Crash map[proto.SiteID]sim.Time

	Seed uint64
	// TID identifies the transaction (default 1); sequential runs sharing
	// database engines must use distinct TIDs.
	TID proto.TxnID
	// Payload is the transaction body carried by MsgXact.
	Payload []byte
	// RecordTrace enables full trace recording (on by default in tests;
	// Run always records — set DisableTrace to skip for benchmarks).
	DisableTrace bool
	// TimersFirst flips the scheduler's same-timestamp ordering so timers
	// beat deliveries — the E15 ablation of the tie-break rule.
	TimersFirst bool
}

// SiteResult is one site's view at quiescence.
type SiteResult struct {
	Outcome    proto.Outcome
	DecidedAt  sim.Time
	FinalState string
	// Started reports whether the site ever participated (the master, or
	// a slave that learned of the transaction from its xact).
	Started bool
	Crashed bool
}

// Result is the outcome of a run.
type Result struct {
	Sites map[proto.SiteID]*SiteResult
	Trace *trace.Recorder
	T     sim.Duration
	// EndedAt is the virtual time at quiescence.
	EndedAt sim.Time
	// MsgsSent .. MsgsDropped are network counters.
	MsgsSent, MsgsDelivered, MsgsBounced, MsgsDropped uint64
}

// Outcome returns site id's outcome (None if unknown site).
func (r *Result) Outcome(id proto.SiteID) proto.Outcome {
	if s, ok := r.Sites[id]; ok {
		return s.Outcome
	}
	return proto.None
}

// Consistent reports transaction atomicity: no two decided sites disagree.
func (r *Result) Consistent() bool {
	seen := proto.None
	for _, s := range r.Sites {
		if s.Outcome == proto.None {
			continue
		}
		if seen == proto.None {
			seen = s.Outcome
		} else if seen != s.Outcome {
			return false
		}
	}
	return true
}

// Blocked lists live sites that participated but never decided — the
// blocking the paper's termination protocol exists to prevent.
func (r *Result) Blocked() []proto.SiteID {
	var out []proto.SiteID
	for _, id := range sortedIDs(r.Sites) {
		s := r.Sites[id]
		if s.Started && !s.Crashed && s.Outcome == proto.None {
			out = append(out, id)
		}
	}
	return out
}

// Decided reports whether every live participating site reached an outcome.
func (r *Result) Decided() bool { return len(r.Blocked()) == 0 }

// AnyCommitted reports whether any site committed.
func (r *Result) AnyCommitted() bool {
	for _, s := range r.Sites {
		if s.Outcome == proto.Commit {
			return true
		}
	}
	return false
}

// MaxDecisionTime returns the latest decision time across sites.
func (r *Result) MaxDecisionTime() sim.Time {
	var max sim.Time
	for _, s := range r.Sites {
		if s.Outcome != proto.None && s.DecidedAt > max {
			max = s.DecidedAt
		}
	}
	return max
}

func sortedIDs(m map[proto.SiteID]*SiteResult) []proto.SiteID {
	out := make([]proto.SiteID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Run executes one transaction under opts and returns the result.
func Run(opts Options) *Result {
	if opts.N < 2 {
		panic("harness: need at least 2 sites")
	}
	if opts.Protocol == nil {
		panic("harness: nil protocol")
	}
	if opts.T <= 0 {
		opts.T = sim.DefaultT
	}
	if opts.Votes == nil {
		opts.Votes = AllYes
	}

	sched := sim.NewScheduler()
	sched.SetTimersFirst(opts.TimersFirst)
	var rec *trace.Recorder
	var sink func(trace.Event)
	if !opts.DisableTrace {
		rec = &trace.Recorder{}
		sink = rec.Append
	}
	net := simnet.New(simnet.Config{
		Sched:        sched,
		T:            opts.T,
		Latency:      opts.Latency,
		BoundaryFrac: opts.BoundaryFrac,
		Mode:         opts.Mode,
		Partition:    opts.Partition,
		Rand:         sim.NewRand(opts.Seed + 1),
		Trace:        rec,
	})

	spec := site.Spec{TID: opts.TID, Master: 1, Payload: opts.Payload}
	if spec.TID == 0 {
		spec.TID = 1
	}
	res := &Result{Sites: make(map[proto.SiteID]*SiteResult, opts.N), Trace: rec, T: opts.T}
	tables := make(map[proto.SiteID]*site.Table, opts.N)
	for i := 1; i <= opts.N; i++ {
		id := proto.SiteID(i)
		spec.Sites = append(spec.Sites, id)
		// Scripted votes ride the envelope as no-votes; a database votes by
		// executing.
		if opts.Participants[id] == nil && !opts.Votes(id, spec.TID, spec.Payload) {
			spec.NoVotes = append(spec.NoVotes, id)
		}
		tables[id] = site.NewTable(site.Site{
			ID: id, Clock: site.SchedClock{Sched: sched, Bound: opts.T}, Transport: net,
			Participant: opts.Participants[id], Trace: sink,
		}, opts.Protocol)
		res.Sites[id] = &SiteResult{FinalState: "q"}
		net.Register(id, tables[id])
	}
	for id, at := range opts.Crash {
		net.CrashAt(id, at)
		if t := tables[id]; t != nil {
			res.Sites[id].Crashed = true
			// The network stops delivering to a crashed site; closing its
			// table silences the timers too.
			sched.At(at, sim.PriPartition, t.Close)
		}
	}

	tables[1].Submit(spec)
	sched.Run()
	res.EndedAt = sched.Now()
	res.MsgsSent, res.MsgsDelivered, res.MsgsBounced, res.MsgsDropped = net.Stats()
	for id, t := range tables {
		if st, ok := t.Txn(spec.TID); ok {
			r := res.Sites[id]
			r.Outcome, r.DecidedAt, r.FinalState, r.Started = st.Outcome, st.DecidedAt, st.State, true
		}
	}
	return res
}
