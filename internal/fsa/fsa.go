// Package fsa implements the formal commit-protocol model of Skeen &
// Stonebraker that Section 2 of Huang & Li (ICDE 1987) builds on:
// transaction execution at each site is a finite state automaton, the
// network is a shared message pool, and a global state is the vector of
// local states plus the outstanding messages.
//
// The automata are the shipped ones: Analyze runs a proto.Protocol's
// master and slave proto.Nodes, one per site, over prototest.Envs. A
// global state is every site's node, the vote its Execute returned, and
// the multiset of messages in flight. A successor takes one of three
// choices:
//
//   - the master's Start, which votes yes (the figures' q1 --request--> w1);
//   - the delivery of one in-flight message;
//   - at a slave whose delivery consults Execute, a yes or a no vote.
//
// The model is failure-free: no timer fires and no message bounces, which
// is exactly the space Skeen's concurrency sets and committability are
// defined over. Nodes cannot be cloned, so each global state is rebuilt by
// replaying the path of choices that reached it, and states are deduped on
// every site's State(), its vote and the sorted in-flight multiset. A
// shipped master takes its votes and acks one delivery at a time, so
// Reachable counts the states between those deliveries too, where a
// figure's "all yes" is one transition.
//
// The package computes, by exhaustive reachability over global states:
//
//   - concurrency sets C(s): every local state potentially concurrent with
//     s in some execution;
//   - sender sets S(s): the states that send messages receivable in s;
//   - the committable/noncommittable classification (a state is
//     committable iff its occupancy implies every site has voted yes);
//   - the Lemma 1 and Lemma 2 conditions for resilience to optimistic
//     multisite simple partitioning;
//   - the Rule(a) timeout-transition assignment derived from C(s).
//
// A final state's kind is the outcome its node passed to Decide.
// Experiments E1, E4 and E14 use the package to reproduce the paper's
// structural claims about two-, three- and four-phase commit; cmd/protoviz
// draws any registry protocol's automata and their analysis.
package fsa

import (
	"fmt"
	"sort"
	"strings"

	"termproto/internal/proto"
	"termproto/internal/proto/prototest"
)

// StateKind classifies a local state's decision.
type StateKind uint8

// State kinds.
const (
	KindNone   StateKind = iota // undecided
	KindCommit                  // a commit (final) state
	KindAbort                   // an abort (final) state
)

// String returns "·", "commit" or "abort".
func (k StateKind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return "·"
	}
}

// Role names.
const (
	Master = "master"
	Slave  = "slave"
)

// StateID names a local state within a role, e.g. {master, "w1"}.
type StateID struct {
	Role string
	Name string
}

// String formats like "master.w1".
func (s StateID) String() string { return s.Role + "." + s.Name }

func stateID(site int, name string) StateID {
	if site == 0 {
		return StateID{Master, name}
	}
	return StateID{Slave, name}
}

// Analysis is the result of exhaustive reachability for a protocol with a
// fixed number of sites.
type Analysis struct {
	Protocol proto.Protocol
	N        int // sites, master included

	// Reachable is the number of distinct reachable global states.
	Reachable int

	// Concurrency maps each occupied StateID to its concurrency set.
	Concurrency map[StateID]map[StateID]bool

	// Committable maps each reachable StateID to its classification.
	Committable map[StateID]bool

	kinds   map[StateID]StateKind
	initial map[string]string // role → its state before any event
	edges   map[edge]bool
	witness map[StateID]witness
}

// witness is the shortest path to a global state in which site occupies a
// local state.
type witness struct {
	path []step
	site int
}

// msg is one in-flight message. Payloads are empty, so its kind and ends
// name it.
type msg struct {
	kind     proto.Kind
	from, to proto.SiteID
}

// step is one choice on a path: the delivery of m, or the master's Start
// when m.kind is 0. If the receiver consults Execute, it votes no when no
// is set.
type step struct {
	m  msg
	no bool
}

var start = step{m: msg{to: 1}}

// world is a global state rebuilt by replaying a path: site i+1 runs
// nodes[i] over envs[i], and the master is site 1.
type world struct {
	nodes   []proto.Node
	envs    []*prototest.Env
	started []bool
	votes   []proto.Outcome // Commit for yes, Abort for no, None before Execute
	pool    []msg
}

func replay(p proto.Protocol, n int, path []step) *world {
	w := &world{started: make([]bool, n), votes: make([]proto.Outcome, n)}
	for i := 0; i < n; i++ {
		env := prototest.NewEnv(proto.SiteID(i+1), n)
		node := p.NewSlave(env.Cfg)
		if i == 0 {
			node = p.NewMaster(env.Cfg)
		}
		w.nodes, w.envs = append(w.nodes, node), append(w.envs, env)
	}
	for _, s := range path {
		w.do(s)
	}
	return w
}

// do takes one step and returns the local edge the receiving site took
// and whether the step consulted Execute.
func (w *world) do(s step) (e edge, consulted bool) {
	site := int(s.m.to) - 1
	node, env := w.nodes[site], w.envs[site]
	env.Vote = func([]byte) bool {
		consulted = true
		w.votes[site] = proto.Commit
		if s.no {
			w.votes[site] = proto.Abort
		}
		return !s.no
	}
	id := stateID(site, node.State())
	e = edge{role: id.Role, from: id.Name, recv: s.m.kind}
	if !w.started[site] {
		w.started[site] = true
		node.Start(env)
	}
	if s.m.kind != 0 {
		for i, m := range w.pool {
			if m == s.m {
				w.pool = append(w.pool[:i:i], w.pool[i+1:]...)
				break
			}
		}
		node.OnMsg(env, proto.Msg{TID: env.Cfg.TID, From: s.m.from, To: s.m.to, Kind: s.m.kind})
	}
	for _, m := range env.Sent {
		w.pool = append(w.pool, msg{m.Kind, m.From, m.To})
		e.sends = e.sends.with(m.Kind)
	}
	env.ClearSent()
	e.to = node.State()
	return e, consulted
}

// choices lists the steps open in w, each with a yes vote: the master's
// Start until it has run, then one delivery per distinct in-flight message.
func (w *world) choices() []step {
	if !w.started[0] {
		return []step{start}
	}
	var out []step
	for _, m := range w.sortedPool() {
		if len(out) == 0 || out[len(out)-1].m != m {
			out = append(out, step{m: m})
		}
	}
	return out
}

func (w *world) sortedPool() []msg {
	pool := append([]msg(nil), w.pool...)
	sort.Slice(pool, func(i, j int) bool {
		a, b := pool[i], pool[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	return pool
}

func (w *world) key() string {
	var b strings.Builder
	for i, node := range w.nodes {
		fmt.Fprintf(&b, "%s/%d,", node.State(), w.votes[i])
	}
	b.WriteByte('|')
	for _, m := range w.sortedPool() {
		fmt.Fprintf(&b, "%d:%d>%d,", m.kind, m.from, m.to)
	}
	return b.String()
}

// Analyze explores every reachable global state of p's automata with n
// sites (1 master + n−1 slaves), derives the structural sets, and probes
// each reachable local state for the local graph. It panics for n < 2;
// exploration is exact, so keep n small (2–4 covers every claim in the
// paper).
func Analyze(p proto.Protocol, n int) *Analysis {
	if n < 2 {
		panic("fsa: need n >= 2")
	}
	a := &Analysis{
		Protocol:    p,
		N:           n,
		Concurrency: make(map[StateID]map[StateID]bool),
		Committable: make(map[StateID]bool),
		kinds:       make(map[StateID]StateKind),
		initial:     make(map[string]string),
		edges:       make(map[edge]bool),
		witness:     make(map[StateID]witness),
	}
	init := replay(p, n, nil)
	a.initial[Master], a.initial[Slave] = init.nodes[0].State(), init.nodes[1].State()
	seen := map[string]bool{init.key(): true}
	a.observe(init, nil)
	for queue := [][]step{nil}; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		for _, s := range replay(p, n, path).choices() {
			for _, no := range []bool{false, true} {
				s.no = no
				w := replay(p, n, path)
				e, consulted := w.do(s)
				a.addEdge(e)
				if k := w.key(); !seen[k] {
					seen[k] = true
					next := append(path[:len(path):len(path)], s)
					queue = append(queue, next)
					a.observe(w, next)
				}
				if !consulted || s == start {
					break
				}
			}
		}
	}
	a.Reachable = len(seen)
	a.probe()
	return a
}

// observe folds one reachable global state into the concurrency sets, the
// committable classification, the final kinds and the witnesses.
func (a *Analysis) observe(w *world, path []step) {
	allYes := true
	for _, v := range w.votes[1:] {
		allYes = allYes && v == proto.Commit
	}
	for i, node := range w.nodes {
		id := stateID(i, node.State())
		set := a.Concurrency[id]
		if set == nil {
			set = make(map[StateID]bool)
			a.Concurrency[id] = set
			a.Committable[id] = allYes
			a.witness[id] = witness{path, i}
		}
		a.Committable[id] = a.Committable[id] && allYes
		for j, other := range w.nodes {
			if i != j {
				set[stateID(j, other.State())] = true
			}
		}
		switch w.envs[i].Decision {
		case proto.Commit:
			a.kinds[id] = KindCommit
		case proto.Abort:
			a.kinds[id] = KindAbort
		}
	}
}

// probe delivers every message kind the other role ever sends to a
// replayed copy of each reachable local state, so the local graph holds
// the transitions a failure-free run never takes, such as Fig. 8's slave
// w --commit--> c. Slave 2 sends the probes to the master.
func (a *Analysis) probe() {
	sent := map[string]kindSet{}
	for e := range a.edges {
		sent[e.role] |= e.sends
	}
	for id, wit := range a.witness {
		from, kinds := proto.SiteID(1), sent[Master]
		if id.Role == Master {
			if len(wit.path) == 0 {
				continue // a master receives nothing before its Start
			}
			from, kinds = 2, sent[Slave]
		}
		for _, kind := range kinds.list() {
			w := replay(a.Protocol, a.N, wit.path)
			e, _ := w.do(step{m: msg{kind, from, proto.SiteID(wit.site + 1)}})
			a.addEdge(e)
		}
	}
}

// addEdge records e if the node moved or sent something.
func (a *Analysis) addEdge(e edge) {
	if e.from != e.to || e.sends != 0 {
		a.edges[e] = true
	}
}

// --- derived structural queries ---

// Kind returns the kind of a reachable local state: the outcome its node
// decided, or KindNone.
func (a *Analysis) Kind(id StateID) StateKind { return a.kinds[id] }

// ConcurrencyContains reports whether C(id) contains a state of the given
// kind.
func (a *Analysis) ConcurrencyContains(id StateID, kind StateKind) bool {
	for other := range a.Concurrency[id] {
		if a.Kind(other) == kind {
			return true
		}
	}
	return false
}

// Lemma1Violations returns the reachable states whose concurrency set
// contains both a commit and an abort state — the states Lemma 1 forbids.
func (a *Analysis) Lemma1Violations() []StateID {
	var out []StateID
	for id := range a.Concurrency {
		if a.ConcurrencyContains(id, KindCommit) && a.ConcurrencyContains(id, KindAbort) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// Lemma2Violations returns the reachable noncommittable states whose
// concurrency set contains a commit state — the states Lemma 2 forbids.
func (a *Analysis) Lemma2Violations() []StateID {
	var out []StateID
	for id := range a.Concurrency {
		if !a.Committable[id] && a.ConcurrencyContains(id, KindCommit) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// SatisfiesLemmas reports whether the protocol passes both Lemma 1 and
// Lemma 2 — the paper's necessary conditions for a resilient protocol.
func (a *Analysis) SatisfiesLemmas() bool {
	return len(a.Lemma1Violations()) == 0 && len(a.Lemma2Violations()) == 0
}

// RuleATimeout returns the Rule(a) timeout assignment for a non-final
// reachable state: commit if C(s) contains a commit state, abort
// otherwise.
func (a *Analysis) RuleATimeout(id StateID) StateKind {
	if a.ConcurrencyContains(id, KindCommit) {
		return KindCommit
	}
	return KindAbort
}

// ConcurrencySet returns C(id) in sorted order.
func (a *Analysis) ConcurrencySet(id StateID) []StateID {
	var out []StateID
	for other := range a.Concurrency[id] {
		out = append(out, other)
	}
	sortIDs(out)
	return out
}

// States returns every reachable StateID in sorted order.
func (a *Analysis) States() []StateID {
	var out []StateID
	for id := range a.Concurrency {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []StateID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Role != ids[j].Role {
			return ids[i].Role < ids[j].Role
		}
		return ids[i].Name < ids[j].Name
	})
}

// Summary renders a human-readable analysis report.
func (a *Analysis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %s, n=%d: %d reachable global states\n",
		a.Protocol.Name(), a.N, a.Reachable)
	for _, id := range a.States() {
		comm := "noncommittable"
		if a.Committable[id] {
			comm = "committable"
		}
		if kind := a.Kind(id); kind != KindNone {
			comm = kind.String() + " (final)"
		}
		fmt.Fprintf(&b, "  %-12s %-16s C=%v\n", id, comm, a.ConcurrencySet(id))
	}
	if v := a.Lemma1Violations(); len(v) > 0 {
		fmt.Fprintf(&b, "  Lemma 1 VIOLATED at %v\n", v)
	} else {
		fmt.Fprintf(&b, "  Lemma 1 satisfied\n")
	}
	if v := a.Lemma2Violations(); len(v) > 0 {
		fmt.Fprintf(&b, "  Lemma 2 VIOLATED at %v\n", v)
	} else {
		fmt.Fprintf(&b, "  Lemma 2 satisfied\n")
	}
	return b.String()
}
