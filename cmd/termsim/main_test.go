package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples.golden from this tree")

// examples are the simulator runs README and the command's doc comment
// show, each with the exit status it must end with.
var examples = []struct {
	args string
	exit int
}{
	{`-proto 2pc -n 3 -schedule partition@2.5:3`, 1}, // 2PC blocks site 3
	{`-proto termination -n 5 -schedule partition@2.9:4,5`, 0},
	{`-proto termination -n 5 -txns 12 -schedule partition@2.9:4,5;heal@9.4 -masters rr`, 0},
	{`-proto termination+transient -n 5 -txns 12 -schedule partition@2.9:4,5;heal@9.4 -masters rr`, 0},
	{`-n 12 -shards 12 -rf 3 -txns 24`, 0},
	{`-n 8 -shards 8 -rf 2 -txns 12 -schedule partition@2.9:7,8;heal@9.4`, 0},
	{`-n 6 -shards 8 -rf 2 -db -txns 16 -schedule join@6.4:6;leave@16.4:1`, 0},
	{`-n 5 -shards 6 -rf 2 -db -txns 12 -schedule move@4.4:0,1,3;partition@5.4:3`, 0},
	{`-proto termination+transient -n 5 -shards 5 -rf 2 -txns 8 -db -schedule partition@5.4:4,5;heal@40.4`, 0},
	{`-n 5 -txns 8 -db -zipf 0.9 -ops 3 -schedule crash@2.9:5;recover@12.4:5`, 0},
	{`-n 3 -txns 8 -db -masters rr -metrics`, 0},
}

// TestExamples runs every example and pins its exit status and its
// per-site and per-transaction lines against testdata/examples.golden;
// `go test ./cmd/termsim -update` rewrites the file.
func TestExamples(t *testing.T) {
	var got bytes.Buffer
	for _, ex := range examples {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(ex.args), &stdout, &stderr)
		if code != ex.exit {
			t.Errorf("termsim %s: exit %d, want %d\n%s%s", ex.args, code, ex.exit, stdout.String(), stderr.String())
		}
		fmt.Fprintf(&got, "$ termsim %s\n", ex.args)
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "site ") || strings.HasPrefix(line, "txn ") {
				fmt.Fprintln(&got, line)
			}
		}
	}
	path := filepath.Join("testdata", "examples.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d moved:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// A run that breaks an invariant prints the rule it broke and exits 1:
// 2PC leaves site 3 blocked in w behind the partition.
func TestViolationExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(examples[0].args), &stdout, &stderr)
	want := "VIOLATION: decision-agreement txn=1: blocked at sites [3] at quiescence"
	if code != 1 || !strings.Contains(stdout.String(), want) {
		t.Fatalf("exit %d, want 1 and %q in\n%s%s", code, want, stdout.String(), stderr.String())
	}
}

// -no scripts the votes of engine-less sites only, so a run with engines
// refuses it rather than dropping it; a protocol-only run aborts on it.
func TestNoVotesNeedAProtocolOnlyRun(t *testing.T) {
	for _, args := range []string{"-n 3 -no 3 -db", "-n 3 -no 3 -shards 3"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-no") {
			t.Errorf("termsim %s: exit %d, stderr %q; want 2 and a message naming -no", args, code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-n 3 -no 3"), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "aborted=1") {
		t.Fatalf("termsim -n 3 -no 3: exit %d, want 0 and one abort\n%s%s", code, stdout.String(), stderr.String())
	}
}
