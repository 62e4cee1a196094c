// Command protoviz draws any registry protocol's automata, as the fsa
// explorer reads them off the shipped proto.Nodes, as text or Graphviz DOT,
// together with the Skeen–Stonebraker structural analysis: reachable
// global states, concurrency sets, committability, sender sets and the
// Lemma 1/2 verdicts.
//
// Usage:
//
//	protoviz [-proto name] [-n sites] [-dot] [-analyze]
//
// -proto takes any registry name (default 3pc); an unknown one lists them
// and exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"termproto/internal/fsa"
	"termproto/internal/protocol/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protoviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("proto", "3pc", "protocol: "+strings.Join(registry.Names(), ", "))
	n := fs.Int("n", 3, "number of sites for the reachability analysis")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	analyze := fs.Bool("analyze", true, "include the structural analysis")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	p, err := registry.Lookup(*name)
	if err != nil {
		fmt.Fprintf(stderr, "protoviz: %v\n", err)
		return 2
	}
	if *n < 2 {
		fmt.Fprintf(stderr, "protoviz: -n %d: need at least 2 sites\n", *n)
		return 2
	}

	a := fsa.Analyze(p, *n)
	if *dot {
		fmt.Fprint(stdout, a.DOT())
		return 0
	}
	fmt.Fprint(stdout, a.Text())
	if *analyze {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, a.Summary())
		fmt.Fprintln(stdout)
		for _, id := range a.States() {
			if ss := a.SenderSet(id); len(ss) > 0 {
				fmt.Fprintf(stdout, "  S(%s) = %v\n", id, ss)
			}
		}
	}
	return 0
}
