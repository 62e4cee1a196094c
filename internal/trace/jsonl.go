package trace

// JSONL trace export: one JSON object per line, a versioned header line
// first, then one event per line. The format is the interchange surface
// of the observability layer — termnode writes it with -trace-out at
// shutdown, termsim writes a run's trace with -trace-out (on the net
// backend, its daemons' files merged), and offline tooling (termchaos
// -check) reads it back with ReadJSONL. The
// reader is hardened the same way the wire and directory codecs are:
// every line is bounded, the header is validated before any event is
// parsed, and unknown kinds or malformed JSON fail cleanly instead of
// panicking or silently skipping.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"termproto/internal/sim"
)

// JSONLVersion is the trace file format revision carried in the header
// line; readers reject files from any later revision.
const JSONLVersion = 1

// jsonlKind is the header's format discriminator.
const jsonlKind = "termproto-trace"

// MaxJSONLLine bounds one line of a trace file — far above any real
// event, a hard ceiling against adversarial input.
const MaxJSONLLine = 1 << 20

// jsonlHeader is the first line of every trace file.
type jsonlHeader struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
}

// jsonlEvent is Event's stable JSON shape. Kind crosses as its string
// name so files stay readable and stable if the internal enum reorders.
type jsonlEvent struct {
	At        int64  `json:"at"`
	Kind      string `json:"kind"`
	Site      int    `json:"site,omitempty"`
	From      int    `json:"from,omitempty"`
	To        int    `json:"to,omitempty"`
	MsgKind   string `json:"msg,omitempty"`
	TID       uint64 `json:"tid,omitempty"`
	Cross     bool   `json:"cross,omitempty"`
	FromState string `json:"from_state,omitempty"`
	ToState   string `json:"to_state,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// kindFromString is String's inverse, built over every declared kind.
var kindFromString = func() map[string]EventKind {
	m := make(map[string]EventKind)
	for k := Send; k <= Note; k++ {
		m[k.String()] = k
	}
	return m
}()

// WriteJSONL writes the events as a JSONL trace: the versioned header
// line, then one event per line, in order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{V: JSONLVersion, Kind: jsonlKind}); err != nil {
		return err
	}
	for _, e := range events {
		je := jsonlEvent{
			At: int64(e.At), Kind: e.Kind.String(), Site: e.Site,
			From: e.From, To: e.To, MsgKind: e.MsgKind, TID: e.TID,
			Cross: e.Cross, FromState: e.FromState, ToState: e.ToState,
			Outcome: e.Outcome, Detail: e.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile writes the events to path, creating or truncating it.
func WriteJSONLFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSONLFile parses the JSONL trace at path.
func ReadJSONLFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// ReadJSONL parses a JSONL trace back into events. The header line is
// validated first — wrong discriminator or a later version fails before
// any event is parsed — and every event line must carry a known kind.
// Blank lines are tolerated (a trailing newline is normal); anything
// else malformed is an error naming the offending line.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxJSONLLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input, want JSONL header")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: bad header line: %w", err)
	}
	if hdr.Kind != jsonlKind {
		return nil, fmt.Errorf("trace: header kind %q, want %q", hdr.Kind, jsonlKind)
	}
	if hdr.V < 1 || hdr.V > JSONLVersion {
		return nil, fmt.Errorf("trace: file version %d, reader supports <= %d", hdr.V, JSONLVersion)
	}
	var out []Event
	line := 1
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(b, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, ok := kindFromString[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown event kind %q", line, je.Kind)
		}
		out = append(out, Event{
			At: sim.Time(je.At), Kind: kind, Site: je.Site,
			From: je.From, To: je.To, MsgKind: je.MsgKind, TID: je.TID,
			Cross: je.Cross, FromState: je.FromState, ToState: je.ToState,
			Outcome: je.Outcome, Detail: je.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return out, nil
}
