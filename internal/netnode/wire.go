// Package netnode turns one site of the termination protocol into a real
// network process: the same proto automata that run under the simulator
// and the goroutine runtime, driven here by TCP connections, wall-clock
// timers and a file-backed write-ahead log in the site's own workspace
// directory. cmd/termnode wraps a Node in a daemon; the harness
// subpackage boots N of them as separate OS processes and injects faults
// by SIGKILL and by posting partition blocklists to their links.
//
// This file is the wire codec. Every connection starts with a fixed-size
// versioned hello identifying the sender site; after that the stream is a
// sequence of length-prefixed frames, each carrying one proto.Msg. The
// decoder is hardened against hostile input the same way engine.DecodeOps
// is: every length and count is validated in 64-bit arithmetic against
// the bytes actually present before any allocation, so a truncated frame
// or an adversarial length prefix fails cleanly instead of over-allocating
// or panicking.
//
// Hello (once per connection, sent by the dialer):
//
//	4 bytes magic "TPNW" | u16 version | u32 sender site
//
// Frame:
//
//	u32 body length | body
//	body: u8 frame kind | u64 tid | u32 from | u32 to | u8 msg kind |
//	      u8 flags (bit0 = undeliverable) | u32 payload length |
//	      u32 slack (µs, proto.Msg.Slack) | payload
//
// MsgXact payloads additionally carry an envelope (see EncodeXact): over
// TCP a slave has no out-of-band start event, so the transaction message
// itself must deliver the master, the participant roster and the
// scripted no-votes alongside the body.
//
// A client's data path speaks the same frames over a connection it
// upgrades on the API port (GET /wire, Upgrade: WireUpgrade — the upgrade
// is the hello): a submit is the MsgXact frame a slave would get, addressed
// to the master and answered by an ack; a query is answered by the site's
// view of the transaction, the TxnDTO that GET /txns lists.
//
//	query, ack: u8 frame kind | u64 tid
//	txn:        u8 frame kind | TxnDTO as JSON
package netnode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// WireVersion is the protocol revision carried in every hello; a receiver
// rejects connections from any other revision. Version 2 added the slack;
// version 3 the MsgSnapshot frames of recovery's catch-up, which a version
// 2 site would never answer; version 4 a donor's refusal of a snapshot
// request, which a version 3 puller would read as an empty last chunk (its
// Pull matches and it is no request) — and engine.CatchUp reads every key
// missing from a chunk as a delete.
const WireVersion = 4

// MaxFrame bounds a frame body. Protocol payloads are transaction bodies
// (a few hundred bytes of encoded ops); 1 MiB is generous headroom and a
// hard ceiling against adversarial length prefixes.
const MaxFrame = 1 << 20

// wireMagic opens every connection.
var wireMagic = [4]byte{'T', 'P', 'N', 'W'}

// ErrWire reports a malformed hello or frame.
var ErrWire = errors.New("netnode: malformed wire data")

// helloLen is the fixed hello size: magic + version + site.
const helloLen = 4 + 2 + 4

// EncodeHello builds the connection preamble for the given sender site.
func EncodeHello(site proto.SiteID) []byte {
	out := make([]byte, helloLen)
	copy(out[0:4], wireMagic[:])
	binary.BigEndian.PutUint16(out[4:6], WireVersion)
	binary.BigEndian.PutUint32(out[6:10], uint32(site))
	return out
}

// ReadHello consumes and validates a hello, returning the sender site.
func ReadHello(r io.Reader) (proto.SiteID, error) {
	var buf [helloLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: short hello: %v", ErrWire, err)
	}
	if [4]byte(buf[0:4]) != wireMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrWire, buf[0:4])
	}
	if v := binary.BigEndian.Uint16(buf[4:6]); v != WireVersion {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrWire, v, WireVersion)
	}
	site := binary.BigEndian.Uint32(buf[6:10])
	if site == 0 {
		return 0, fmt.Errorf("%w: zero sender site", ErrWire)
	}
	return proto.SiteID(site), nil
}

// Frame kinds.
const (
	frameMsg   = 1 // one proto.Msg: site to site, or a client's submit
	frameQuery = 2 // client → site: report transaction tid
	frameAck   = 3 // site → client: the submit of tid has reached the loop
	frameTxn   = 4 // site → client: the answer to a query, a TxnDTO
)

// WireUpgrade is the Upgrade token of GET /wire; it carries WireVersion.
const WireUpgrade = "termproto-wire/4"

// tidFrameLen is the size of a query or ack frame body.
const tidFrameLen = 1 + 8

// beginFrame starts a length-prefixed frame in buf[:0]; sealFrame fills the
// prefix in once the body has been appended.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

func sealFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// AppendTID appends a query or ack frame body.
func AppendTID(buf []byte, kind byte, tid proto.TxnID) []byte {
	return binary.BigEndian.AppendUint64(append(buf, kind), uint64(tid))
}

// DecodeTID decodes a query or ack frame body of the given kind.
func DecodeTID(body []byte, kind byte) (proto.TxnID, error) {
	if len(body) != tidFrameLen || body[0] != kind {
		return 0, fmt.Errorf("%w: not a %d-byte frame of kind %d", ErrWire, tidFrameLen, kind)
	}
	return proto.TxnID(binary.BigEndian.Uint64(body[1:])), nil
}

// msgHeadLen is the fixed part of a message frame body.
const msgHeadLen = 1 + 8 + 4 + 4 + 1 + 1 + 4 + 4

// AppendMsg appends one protocol message, encoded as a frame body (no
// length prefix), onto buf — the zero-allocation form: with a buffer of
// sufficient capacity it never touches the heap.
func AppendMsg(buf []byte, m proto.Msg) []byte {
	buf = append(buf, frameMsg)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.TID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.To))
	buf = append(buf, byte(m.Kind))
	var flags byte
	if m.Undeliverable {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Slack))
	buf = append(buf, m.Payload...)
	return buf
}

// EncodeMsg encodes one protocol message as a freshly-allocated frame
// body (no length prefix; WriteMsg adds it). Hot paths prefer AppendMsg
// with a reused buffer.
func EncodeMsg(m proto.Msg) []byte {
	return AppendMsg(make([]byte, 0, msgHeadLen+len(m.Payload)), m)
}

// DecodeMsg decodes a frame body produced by EncodeMsg. Seq and SentAt are
// local bookkeeping and do not cross the wire.
func DecodeMsg(body []byte) (proto.Msg, error) {
	if len(body) < msgHeadLen {
		return proto.Msg{}, fmt.Errorf("%w: frame body %d bytes, want >= %d", ErrWire, len(body), msgHeadLen)
	}
	if body[0] != frameMsg {
		return proto.Msg{}, fmt.Errorf("%w: unknown frame kind %d", ErrWire, body[0])
	}
	m := proto.Msg{
		TID:  proto.TxnID(binary.BigEndian.Uint64(body[1:9])),
		From: proto.SiteID(binary.BigEndian.Uint32(body[9:13])),
		To:   proto.SiteID(binary.BigEndian.Uint32(body[13:17])),
		Kind: proto.Kind(body[17]),
	}
	flags := body[18]
	if flags&^byte(1) != 0 {
		return proto.Msg{}, fmt.Errorf("%w: unknown flags %#x", ErrWire, flags)
	}
	m.Undeliverable = flags&1 != 0
	m.Slack = sim.Duration(binary.BigEndian.Uint32(body[23:27]))
	n := binary.BigEndian.Uint32(body[19:23])
	// 64-bit comparison: an adversarial 4 GiB payload length must not
	// wrap, over-allocate, or slice out of range.
	if uint64(n) != uint64(len(body)-msgHeadLen) {
		return proto.Msg{}, fmt.Errorf("%w: payload length %d, %d bytes present", ErrWire, n, len(body)-msgHeadLen)
	}
	if n > 0 {
		m.Payload = append([]byte(nil), body[msgHeadLen:]...)
	}
	return m, nil
}

// framePool recycles whole-frame buffers (length prefix + body) across
// WriteMsg calls, so the steady-state send path allocates nothing.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// WriteMsg writes one protocol message as a length-prefixed frame. The
// prefix and body are assembled in a pooled buffer and issued as a
// single Write, so a frame is never torn across two syscalls (and two
// goroutines' frames can never interleave on a shared connection whose
// writer does not lock).
func WriteMsg(w io.Writer, m proto.Msg) error {
	bufp := framePool.Get().(*[]byte)
	buf := AppendMsg(beginFrame(*bufp), m)
	body := len(buf) - 4
	if body > MaxFrame {
		*bufp = buf
		framePool.Put(bufp)
		return fmt.Errorf("%w: frame %d bytes exceeds max %d", ErrWire, body, MaxFrame)
	}
	_, err := w.Write(sealFrame(buf))
	*bufp = buf
	framePool.Put(bufp)
	return err
}

// ReadFrameInto reads one length-prefixed frame body into scratch
// (grown as needed), returning the filled slice and the possibly-larger
// scratch for the next call — the zero-allocation receive path, since
// DecodeMsg copies the payload out of the frame. io.EOF (clean close
// between frames) passes through unwrapped so callers can distinguish it
// from corruption; any other failure wraps ErrWire.
func ReadFrameInto(r io.Reader, scratch []byte) (body, next []byte, err error) {
	// The header is read through scratch too: a local [4]byte would
	// escape into the io.ReadFull interface call and cost one allocation
	// per frame.
	if cap(scratch) < 4 {
		scratch = make([]byte, 0, 512)
	}
	head := scratch[:4]
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return nil, scratch, io.EOF
		}
		return nil, scratch, fmt.Errorf("%w: short frame header: %v", ErrWire, err)
	}
	n := binary.BigEndian.Uint32(head)
	// Validate before allocating: an oversized length prefix must not
	// reserve gigabytes for a frame that can never legally exist.
	if uint64(n) > MaxFrame {
		return nil, scratch, fmt.Errorf("%w: frame length %d exceeds max %d", ErrWire, n, MaxFrame)
	}
	if n == 0 {
		return nil, scratch, fmt.Errorf("%w: empty frame", ErrWire)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	body = scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, scratch, fmt.Errorf("%w: short frame body: %v", ErrWire, err)
	}
	return body, scratch, nil
}

// ReadFrame reads one length-prefixed frame body into a fresh buffer.
func ReadFrame(r io.Reader) ([]byte, error) {
	body, _, err := ReadFrameInto(r, nil)
	return body, err
}

// ReadMsg reads and decodes one protocol message frame.
func ReadMsg(r io.Reader) (proto.Msg, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return proto.Msg{}, err
	}
	return DecodeMsg(body)
}

// The MsgXact envelope belongs to the site runtime that interprets it —
// site.Loop creates a slave from the first one it sees — and rides every
// MsgXact frame as its payload; these names keep it on the wire codec's
// surface.
type XactEnvelope = site.XactEnvelope

// AppendXact, EncodeXact and DecodeXact are the envelope codec.
var (
	AppendXact = site.AppendXact
	EncodeXact = site.EncodeXact
	DecodeXact = site.DecodeXact
)
