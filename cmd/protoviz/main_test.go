package main

import (
	"bytes"
	"strings"
	"testing"

	"termproto/internal/protocol/registry"
)

func protoviz(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestRendersEveryRegistryName(t *testing.T) {
	for _, name := range registry.Names() {
		for _, args := range [][]string{{"-proto", name}, {"-proto", name, "-dot"}} {
			out, errOut, code := protoviz(t, args...)
			if code != 0 || errOut != "" {
				t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
			}
			if !strings.Contains(out, "master") || !strings.Contains(out, "slave") {
				t.Errorf("%v: output names no roles:\n%s", args, out)
			}
		}
	}
}

// Fig. 8 differs from Fig. 3 by one slave edge, w --commit--> c, which a
// failure-free run never takes; the drawing must still show it.
func TestModifiedThreePCDrawsWToC(t *testing.T) {
	const edge = `slave_w -> slave_c [label="commit/–"]`
	if mod, _, _ := protoviz(t, "-proto", "3pc-mod", "-dot"); !strings.Contains(mod, edge) {
		t.Errorf("3pc-mod DOT lacks %s:\n%s", edge, mod)
	}
	if pure, _, _ := protoviz(t, "-proto", "3pc", "-dot"); strings.Contains(pure, edge) {
		t.Errorf("3pc DOT has %s:\n%s", edge, pure)
	}
}

func TestDefaultAnalysisSatisfiesLemma1(t *testing.T) {
	out, _, code := protoviz(t)
	if code != 0 || !strings.Contains(out, "protocol 3pc, n=3") || !strings.Contains(out, "Lemma 1 satisfied") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

func TestUnknownNameListsRegistry(t *testing.T) {
	_, errOut, code := protoviz(t, "-proto", "4pc")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	for _, name := range registry.Names() {
		if !strings.Contains(errOut, name) {
			t.Errorf("stderr does not list %s: %q", name, errOut)
		}
	}
	if _, _, code := protoviz(t, "-n", "1"); code != 2 {
		t.Errorf("-n 1: exit %d, want 2", code)
	}
}
