package netnode

import (
	"bytes"
	"encoding/binary"
	"testing"

	"termproto/internal/proto"
)

// FuzzWireCodec feeds arbitrary bytes through the frame reader and every
// body decoder. The invariants: no panic, no over-allocation (bounded by
// MaxFrame/maxSites), and everything that decodes re-encodes to the exact
// same bytes — a frame either round-trips byte-identically or is rejected.
func FuzzWireCodec(f *testing.F) {
	// Valid frames of each shape.
	f.Add(EncodeMsg(proto.Msg{TID: 1, From: 1, To: 2, Kind: proto.MsgXact, Payload: []byte("body")}))
	f.Add(EncodeMsg(proto.Msg{TID: 1 << 40, From: 5, To: 1, Kind: proto.MsgCommit, Undeliverable: true}))
	f.Add(EncodeMsg(proto.Msg{TID: 2, From: 1, To: 3, Kind: proto.MsgXact, Payload: []byte("body"), Slack: 1<<32 - 1}))
	f.Add(EncodeMsg(proto.Msg{
		TID: 3, From: 1, To: 4, Kind: proto.MsgXact,
		Payload: EncodeXact(XactEnvelope{
			Master: 1, Sites: []proto.SiteID{1, 2, 4}, NoVotes: []proto.SiteID{2}, Body: []byte("ops"),
		}),
	}))
	// Recovery's catch-up: a snapshot request for the keys from "k" on,
	// the one chunk answering it ("k2" = "v", nothing more follows), and a
	// recovering donor's refusal of it.
	f.Add(EncodeMsg(proto.Msg{From: 2, To: 1, Kind: proto.MsgSnapshot, Payload: []byte(`{"Req":true,"Pull":7,"From":"aw=="}`)}))
	f.Add(EncodeMsg(proto.Msg{From: 1, To: 2, Kind: proto.MsgSnapshot, Payload: []byte(`{"Pull":7,"Entries":[{"Key":"azI=","Value":"dg=="}]}`)}))
	f.Add(EncodeMsg(proto.Msg{From: 1, To: 2, Kind: proto.MsgSnapshot, Payload: []byte(`{"Refused":true,"Pull":7}`)}))
	// The client data path: a submit (no sender site), a query and an ack.
	f.Add(EncodeMsg(proto.Msg{
		TID: 8, To: 1, Kind: proto.MsgXact,
		Payload: EncodeXact(XactEnvelope{Master: 1, Sites: []proto.SiteID{1, 2, 3}, Body: []byte("ops")}),
	}))
	f.Add(AppendTID(nil, frameQuery, 8))
	f.Add(AppendTID(nil, frameAck, 1<<50))
	// Hostile shapes: truncations, lying lengths, garbage.
	f.Add(AppendTID(nil, frameQuery, 8)[:5])
	f.Add([]byte{})
	f.Add([]byte{frameMsg})
	f.Add(EncodeMsg(proto.Msg{TID: 9, From: 2, To: 3, Kind: proto.MsgYes})[:10])
	f.Add(binary.BigEndian.AppendUint32(nil, 0xffffffff))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, body []byte) {
		if m, err := DecodeMsg(body); err == nil {
			if !bytes.Equal(EncodeMsg(m), body) {
				t.Fatalf("msg re-encode mismatch for %x", body)
			}
			if env, err := DecodeXact(m.Payload); err == nil {
				if !bytes.Equal(EncodeXact(env), m.Payload) {
					t.Fatalf("xact re-encode mismatch for %x", m.Payload)
				}
			}
		}

		for _, kind := range []byte{frameQuery, frameAck} {
			if tid, err := DecodeTID(body, kind); err == nil && !bytes.Equal(AppendTID(nil, kind, tid), body) {
				t.Fatalf("tid frame re-encode mismatch for %x", body)
			}
		}

		// The same bytes as a framed stream: the reader must reject or
		// terminate cleanly on every prefix-mangled variant, including an
		// oversized or truncated length prefix.
		framed := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		framed = append(framed, body...)
		for _, raw := range [][]byte{body, framed, framed[:len(framed)-len(framed)/2]} {
			r := bytes.NewReader(raw)
			for {
				if _, err := ReadMsg(r); err != nil {
					break
				}
			}
		}
	})
}
