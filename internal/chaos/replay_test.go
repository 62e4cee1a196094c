package chaos

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
)

var update = flag.Bool("update", false, "rewrite testdata/replay.digests from this tree")

// replayCorpus is the pinned slice of the corpus: seeds 1–200 as drawn, and
// seeds 2001–2050 of the timeout family (the CI slice aimed at the
// timer/solicit paths).
func replayCorpus() []Scenario {
	var out []Scenario
	for seed := uint64(1); seed <= 200; seed++ {
		out = append(out, FromSeed(seed))
	}
	for seed := uint64(2001); seed <= 2050; seed++ {
		out = append(out, FromSeedIn(seed, Timeout))
	}
	return out
}

// replayDigest hashes what a run leaves behind: every trace event, then
// every per-site outcome in TID/site order.
func replayDigest(r *Result) string {
	h := sha256.New()
	for _, ev := range r.Events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	results := append([]*cluster.TxnResult(nil), r.Results...)
	sort.Slice(results, func(i, j int) bool { return results[i].TID < results[j].TID })
	for _, res := range results {
		ids := make([]proto.SiteID, 0, len(res.Sites))
		for id := range res.Sites {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Fprintf(h, "%d %d %+v\n", res.TID, id, *res.Sites[id])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReplayDigests pins the simulator's behaviour on the corpus: a change
// that claims to leave the simulator as it was leaves
// testdata/replay.digests byte-identical. A change meant to move behaviour
// regenerates the file with `go test ./internal/chaos -run
// TestReplayDigests -update` and says which seeds moved and why.
func TestReplayDigests(t *testing.T) {
	var got bytes.Buffer
	for _, sc := range replayCorpus() {
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", sc.Seed, err)
		}
		fmt.Fprintf(&got, "%d %s %s\n", sc.Seed, sc.Family, replayDigest(r))
	}
	path := filepath.Join("testdata", "replay.digests")
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
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, want %d", len(gotLines)-1, len(wantLines)-1)
	}
	moved := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if moved < 10 {
				t.Errorf("digest moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d replays moved", moved, len(gotLines)-1)
	}
}
