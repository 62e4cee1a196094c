package netnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"termproto/internal/proto"
	siterun "termproto/internal/site"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(EncodeHello(7))
	site, err := ReadHello(&buf)
	if err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
	if site != 7 {
		t.Fatalf("site = %d, want 7", site)
	}
}

func TestHelloRejects(t *testing.T) {
	cases := map[string][]byte{
		"short":       {0x54, 0x50},
		"bad magic":   append([]byte("XXXX"), make([]byte, 6)...),
		"bad version": append([]byte("TPNW"), 0x00, 0x63, 0, 0, 0, 1),
		// Version 1 frames carry no slack: a peer that speaks them is refused.
		"version 1": append([]byte("TPNW"), 0x00, 0x01, 0, 0, 0, 1),
		// A version 2 site never answers a snapshot request: a restarted
		// peer would skip its catch-up in silence.
		"version 2": append([]byte("TPNW"), 0x00, 0x02, 0, 0, 0, 1),
		// A version 3 puller would read a donor's refusal as an empty last
		// chunk and delete every key it holds in the chunk's range.
		"version 3": append([]byte("TPNW"), 0x00, 0x03, 0, 0, 0, 1),
		"zero site": append([]byte("TPNW"), 0x00, 0x04, 0, 0, 0, 0),
	}
	for name, raw := range cases {
		if _, err := ReadHello(bytes.NewReader(raw)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", name, err)
		}
	}
}

func TestMsgRoundTrip(t *testing.T) {
	msgs := []proto.Msg{
		{TID: 1, From: 1, To: 2, Kind: proto.MsgXact, Payload: []byte("body")},
		{TID: 1 << 40, From: 5, To: 1, Kind: proto.MsgYes},
		{TID: 9, From: 3, To: 4, Kind: proto.MsgCommit, Undeliverable: true},
		{TID: 2, From: 2, To: 3, Kind: proto.MsgInquire, Payload: []byte{}},
		{TID: 4, From: 1, To: 3, Kind: proto.MsgXact, Payload: []byte("body"), Slack: 12_345},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%v): %v", m, err)
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("ReadMsg(%v): %v", m, err)
		}
		want := m
		if len(want.Payload) == 0 {
			want.Payload = nil // empty and nil payloads are the same wire bytes
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestReadMsgHostile(t *testing.T) {
	frame := func(body []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		return append(out, body...)
	}
	valid := EncodeMsg(proto.Msg{TID: 1, From: 1, To: 2, Kind: proto.MsgYes})

	cases := map[string][]byte{
		"empty frame":      frame(nil),
		"oversized prefix": binary.BigEndian.AppendUint32(nil, MaxFrame+1),
		"huge prefix":      {0xff, 0xff, 0xff, 0xff},
		"truncated body":   frame(valid)[:8],
		"short body":       frame(valid[:5]),
		"bad frame kind":   frame(append([]byte{0xee}, valid[1:]...)),
		"bad flags":        frame(mutate(valid, 18, 0xf0)),
		"payload len lies": frame(mutate(valid, 22, 0x7f)),
	}
	for name, raw := range cases {
		if _, err := ReadMsg(bytes.NewReader(raw)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", name, err)
		}
	}
	// A clean close between frames is EOF, not corruption.
	if _, err := ReadMsg(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("clean close: err = %v, want io.EOF", err)
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestXactRoundTrip(t *testing.T) {
	envs := []XactEnvelope{
		{Master: 1, Sites: []proto.SiteID{1, 2, 3}, Body: []byte("ops")},
		{Master: 4, Sites: []proto.SiteID{2, 4, 5}, NoVotes: []proto.SiteID{5}},
		{Master: 2, Sites: []proto.SiteID{1, 2}},
	}
	for _, env := range envs {
		got, err := DecodeXact(EncodeXact(env))
		if err != nil {
			t.Fatalf("DecodeXact(%+v): %v", env, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round trip: got %+v, want %+v", got, env)
		}
	}
}

func TestXactHostile(t *testing.T) {
	valid := EncodeXact(XactEnvelope{Master: 1, Sites: []proto.SiteID{1, 2, 3}, Body: []byte("x")})
	cases := map[string][]byte{
		"empty":             nil,
		"truncated roster":  valid[:7],
		"roster count lies": mutate(valid, 5, 0xff),
		"huge roster":       mutate(mutate(valid, 4, 0xff), 5, 0xff),
		"body length lies":  mutate(valid, len(valid)-2, 0x70),
		"truncated body":    valid[:len(valid)-1],
	}
	for name, raw := range cases {
		if _, err := DecodeXact(raw); !errors.Is(err, siterun.ErrEnvelope) {
			t.Errorf("%s: err = %v, want ErrEnvelope", name, err)
		}
	}
}
