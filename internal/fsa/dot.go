package fsa

import (
	"fmt"
	"sort"
	"strings"

	"termproto/internal/proto"
)

// edge is one local transition: a node of role in state from, receiving
// recv (0: the master's Start, drawn "request"), moved to state to and
// sent sends.
type edge struct {
	role, from string
	recv       proto.Kind
	to         string
	sends      kindSet
}

// kindSet is a set of message kinds, one bit per proto.Kind.
type kindSet uint32

func (ks kindSet) with(k proto.Kind) kindSet { return ks | 1<<k }

func (ks kindSet) list() []proto.Kind {
	var out []proto.Kind
	for k := proto.Kind(1); k < 32; k++ {
		if ks&(1<<k) != 0 {
			out = append(out, k)
		}
	}
	return out
}

func (e edge) label() string {
	recv := "request"
	if e.recv != 0 {
		recv = e.recv.String()
	}
	var sends []string
	for _, k := range e.sends.list() {
		sends = append(sends, k.String())
	}
	if len(sends) == 0 {
		return recv + "/–"
	}
	return recv + "/" + strings.Join(sends, ",")
}

// roleEdges returns the local graph's edges of one role in a stable order.
func (a *Analysis) roleEdges(role string) []edge {
	var out []edge
	for e := range a.edges {
		if e.role == role {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.from != y.from {
			return x.from < y.from
		}
		if x.recv != y.recv {
			return x.recv < y.recv
		}
		return x.to < y.to
	})
	return out
}

// roleStates returns the reachable states of one role in sorted order.
func (a *Analysis) roleStates(role string) []StateID {
	var out []StateID
	for _, id := range a.States() {
		if id.Role == role {
			out = append(out, id)
		}
	}
	return out
}

// SenderSet computes S(s): the states of the other role whose local edges
// send a message kind that some edge out of s receives.
func (a *Analysis) SenderSet(id StateID) []StateID {
	var recv kindSet
	for e := range a.edges {
		if e.role == id.Role && e.from == id.Name && e.recv != 0 {
			recv = recv.with(e.recv)
		}
	}
	seen := map[StateID]bool{}
	var out []StateID
	for e := range a.edges {
		if s := (StateID{e.role, e.from}); e.role != id.Role && e.sends&recv != 0 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sortIDs(out)
	return out
}

// DOT renders the protocol's two automata as a Graphviz digraph, in the
// visual language of the paper's figures: commit states are doublecircled,
// abort states diamonds, transitions labelled "recv/send".
func (a *Analysis) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n", a.Protocol.Name())
	for _, role := range []string{Master, Slave} {
		fmt.Fprintf(&b, "  subgraph cluster_%s {\n    label=%q;\n", role, role)
		for _, id := range a.roleStates(role) {
			shape := "circle"
			switch a.Kind(id) {
			case KindCommit:
				shape = "doublecircle"
			case KindAbort:
				shape = "diamond"
			}
			fmt.Fprintf(&b, "    %s_%s [label=%q shape=%s];\n", role, id.Name, id.Name, shape)
		}
		for _, e := range a.roleEdges(role) {
			fmt.Fprintf(&b, "    %s_%s -> %s_%s [label=%q];\n", role, e.from, role, e.to, e.label())
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders a compact textual listing of the local graph (states and
// transitions per role) for terminal output.
func (a *Analysis) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %s\n", a.Protocol.Name())
	for _, role := range []string{Master, Slave} {
		fmt.Fprintf(&b, "  role %s (initial %s)\n", role, a.initial[role])
		var names []string
		for _, id := range a.roleStates(role) {
			n := id.Name
			if k := a.Kind(id); k != KindNone {
				n += "[" + k.String() + "]"
			}
			names = append(names, n)
		}
		fmt.Fprintf(&b, "    states: %s\n", strings.Join(names, " "))
		for _, e := range a.roleEdges(role) {
			fmt.Fprintf(&b, "    %-4s --%s--> %s\n", e.from, e.label(), e.to)
		}
	}
	return b.String()
}
