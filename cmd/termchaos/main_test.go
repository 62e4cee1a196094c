package main

import (
	"bytes"
	"strings"
	"testing"
)

// -replay resolves its seed under -family, so it replays the scenario the
// family-restricted corpus ran: seed 2001 of the timeout slice is a
// five-site timeout run, while FromSeed(2001) alone draws a stress one.
func TestReplayHonoursFamily(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-replay", "2001", "-family", "timeout"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	head, _, _ := strings.Cut(stdout.String(), "\n")
	if !strings.Contains(head, "seed=2001 family=timeout") || !strings.Contains(head, "sites=5") {
		t.Fatalf("replayed %q, want seed 2001 of the timeout family (5 sites)", head)
	}
}

// An unknown family is refused before anything runs, on every mode.
func TestUnknownFamily(t *testing.T) {
	for _, args := range [][]string{{"-family", "bogus", "-n", "1"}, {"-replay", "3", "-family", "bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "unknown family") {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}
