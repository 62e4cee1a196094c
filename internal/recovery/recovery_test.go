package recovery

import (
	"fmt"
	"testing"
)

func TestStatsString(t *testing.T) {
	s := Stats{Replayed: 1, InDoubt: 2, ResolvedCommit: 1, ResolvedAbort: 1, CaughtUpKeys: 3}
	want := "replayed=1 in-doubt=2 resolved-commit=1 resolved-abort=1 unresolved=0 caught-up=3"
	if got := fmt.Sprint(s); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
