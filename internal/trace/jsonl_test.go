package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"termproto/internal/sim"
)

// sampleEvents exercises every field and every declared kind at least
// once, including zero values that omitempty elides on the wire.
func sampleEvents() []Event {
	events := []Event{
		{At: 0, Kind: Send, Site: 1, From: 1, To: 3, MsgKind: "xact", TID: 7},
		{At: 250, Kind: Deliver, Site: 3, From: 1, To: 3, MsgKind: "xact", TID: 7, Cross: true},
		{At: 300, Kind: Transition, Site: 3, TID: 7, FromState: "q", ToState: "w"},
		{At: 900, Kind: Decide, Site: 1, TID: 7, Outcome: "commit"},
		{At: 1000, Kind: Note, Detail: "heal scheduled"},
	}
	for k := Send; k <= Note; k++ {
		events = append(events, Event{At: 2000 + sim.Time(k), Kind: k, Site: int(k)})
	}
	return events
}

// TestJSONLRoundTrip: WriteJSONL → ReadJSONL is the identity on every
// field of every kind.
func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", events, got)
	}
}

// TestJSONLEmptyTrace: zero events is a valid trace — header only.
func TestJSONLEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d events from an empty trace", len(got))
	}
}

// TestJSONLFile round-trips through the file helpers termsim and
// termnode use.
func TestJSONLFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	events := sampleEvents()
	if err := WriteJSONLFile(path, events); err != nil {
		t.Fatalf("write file: %v", err)
	}
	got, err := ReadJSONLFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("file round trip diverged")
	}
}

// TestJSONLHostileInput: malformed traces must fail with a clear error,
// never panic or silently skip.
func TestJSONLHostileInput(t *testing.T) {
	header := `{"v":1,"kind":"termproto-trace"}`
	cases := []struct {
		name  string
		input string
		want  string // a substring of the error
	}{
		{"empty", "", "empty input"},
		{"garbage header", "not json\n", "bad header line"},
		{"wrong kind", `{"v":1,"kind":"something-else"}` + "\n", "header kind"},
		{"future version", `{"v":99,"kind":"termproto-trace"}` + "\n", "file version 99"},
		{"zero version", `{"v":0,"kind":"termproto-trace"}` + "\n", "file version 0"},
		{"events without header", `{"at":1,"kind":"send"}` + "\n", "header kind"},
		{"unknown event kind", header + "\n" + `{"at":1,"kind":"quantum-leap"}` + "\n", "unknown event kind"},
		// Traces written while lease and quorum bookkeeping existed are
		// rejected rather than misread.
		{"retired quorum-eval kind", header + "\n" + `{"at":1,"kind":"quorum-eval","site":1}` + "\n", "unknown event kind"},
		{"renumbered kind as int", header + "\n" + `{"at":1,"kind":3}` + "\n", "line 2"},
		{"truncated event json", header + "\n" + `{"at":1,"kind":"send"` + "\n", "line 2"},
		{"oversized line", header + "\n" + `{"detail":"` + strings.Repeat("x", MaxJSONLLine+1) + `"}` + "\n", "token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestJSONLTolerance: blank lines (including trailing newlines) are not
// errors, and event errors name the offending line.
func TestJSONLTolerance(t *testing.T) {
	header := `{"v":1,"kind":"termproto-trace"}`
	in := header + "\n\n" + `{"at":5,"kind":"send","site":1}` + "\n\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatalf("blank lines rejected: %v", err)
	}
	if len(got) != 1 || got[0].Kind != Send || got[0].At != 5 {
		t.Fatalf("read %+v", got)
	}

	bad := header + "\n" + `{"at":5,"kind":"send"}` + "\n" + `{"at":6,"kind":"warp"}` + "\n"
	_, err = ReadJSONL(strings.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name line 3: %v", err)
	}
}

// FuzzTraceJSONL is the trace analogue of the wire codec fuzzer: any
// input either fails to parse cleanly or yields events that survive a
// write→read cycle unchanged — the decoded form is a fixed point.
func FuzzTraceJSONL(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteJSONL(&valid, sampleEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	WriteJSONL(&empty, nil) //nolint:errcheck
	f.Add(empty.Bytes())
	f.Add([]byte(`{"v":1,"kind":"termproto-trace"}` + "\n" + `{"at":1,"kind":"decide","outcome":"abort"}` + "\n"))
	f.Add([]byte(`{"v":2,"kind":"termproto-trace"}` + "\n"))
	f.Add([]byte("\x00\xff garbage"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded trace failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("event count changed across cycle: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], again[i]) {
				t.Fatalf("event %d changed across cycle:\n%+v\n%+v", i, events[i], again[i])
			}
		}
	})
}

// TestJSONLKindNamesStable pins the on-disk kind vocabulary: renaming an
// EventKind string is a format break, and this test is the tripwire.
func TestJSONLKindNamesStable(t *testing.T) {
	want := map[EventKind]string{
		Send: "send", Deliver: "deliver", Bounce: "bounce", Drop: "drop",
		Transition: "transition", Decide: "decide",
		TimerSet: "timer-set", TimerFire: "timer-fire", TimerStop: "timer-stop",
		PartitionOn: "partition-on", PartitionOff: "partition-off",
		Crash: "crash", Recover: "recover", Note: "note",
	}
	for k := Send; k <= Note; k++ {
		name, ok := want[k]
		if !ok {
			t.Fatalf("new kind %d has no pinned name — extend this test and bump care", k)
		}
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", k, k.String(), name)
		}
		if kindFromString[name] != k {
			t.Errorf("kindFromString[%q] = %v, want %v", name, kindFromString[name], k)
		}
	}
}
