package netnode

import (
	"bytes"
	"io"
	"testing"

	"termproto/internal/proto"
)

// Benchmarks for the wire hot path. The append encoders, the pooled
// WriteMsg and the scratch-reuse reader are the zero-alloc claims:
// TestWireCodecZeroAlloc holds them to 0 allocs/op; `go test -bench .
// -benchmem ./internal/netnode/` adds the ns/op.

var benchMsg = proto.Msg{
	TID: 7, From: 2, To: 5, Kind: proto.MsgXact,
	Payload: bytes.Repeat([]byte{0xAB}, 64),
}

func BenchmarkAppendMsg(b *testing.B) {
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMsg(buf[:0], benchMsg)
	}
}

var benchEnv = XactEnvelope{
	Master: 1,
	Sites:  []proto.SiteID{1, 2, 3, 4, 5},
	Body:   benchMsg.Payload,
}

func BenchmarkAppendXact(b *testing.B) {
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendXact(buf[:0], benchEnv)
	}
}

func BenchmarkWriteMsg(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMsg(io.Discard, benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrameInto(b *testing.B) {
	var framed bytes.Buffer
	if err := WriteMsg(&framed, benchMsg); err != nil {
		b.Fatal(err)
	}
	frame := framed.Bytes()
	rdr := bytes.NewReader(frame)
	scratch := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rdr.Reset(frame)
		_, next, err := ReadFrameInto(rdr, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = next
	}
}

// TestWireCodecZeroAlloc is the guarantee the four benchmarks above
// report: a frame is encoded, written and read back on the per-message
// path without touching the allocator.
func TestWireCodecZeroAlloc(t *testing.T) {
	var framed bytes.Buffer
	if err := WriteMsg(&framed, benchMsg); err != nil {
		t.Fatal(err)
	}
	frame := framed.Bytes()
	rdr := bytes.NewReader(frame)
	buf := make([]byte, 0, 512)
	scratch := make([]byte, 0, 512)
	rows := []struct {
		name   string
		pooled bool // draws its buffer from a sync.Pool
		fn     func()
	}{
		{"AppendMsg", false, func() { buf = AppendMsg(buf[:0], benchMsg) }},
		{"AppendXact", false, func() { buf = AppendXact(buf[:0], benchEnv) }},
		// What a client's Submit and its Txn put on the connection,
		// length prefix included.
		{"submit frame", false, func() { buf = sealFrame(AppendMsg(beginFrame(buf), benchMsg)) }},
		{"query frame", false, func() { buf = sealFrame(AppendTID(beginFrame(buf), frameQuery, 7)) }},
		{"WriteMsg", true, func() {
			if err := WriteMsg(io.Discard, benchMsg); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadFrameInto", false, func() {
			rdr.Reset(frame)
			_, next, err := ReadFrameInto(rdr, scratch)
			if err != nil {
				t.Fatal(err)
			}
			scratch = next
		}},
	}
	for _, row := range rows {
		if raceEnabled && row.pooled {
			continue // under -race sync.Pool drops a quarter of its Puts on purpose
		}
		if n := testing.AllocsPerRun(200, row.fn); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", row.name, n)
		}
	}
}
