package site

import (
	"encoding/binary"
	"errors"
	"fmt"

	"termproto/internal/proto"
)

// ErrEnvelope reports a malformed MsgXact envelope.
var ErrEnvelope = errors.New("site: malformed xact envelope")

// XactEnvelope is the extra context a MsgXact carries between site loops.
// Only the master learns of a transaction from its submission; a slave
// learns it from the transaction message itself — exactly the paper's
// model, where the Xact message is all a slave ever receives before
// voting. NoVotes lists sites whose scripted voter said no: the submitter
// evaluates the (Go-function) voter once and ships the verdicts, since a
// closure cannot cross a process boundary.
//
// Body is opaque to the runtime: every node on the path carries it as
// bytes, and only the engine decodes it.
type XactEnvelope struct {
	Master  proto.SiteID
	Sites   []proto.SiteID
	NoVotes []proto.SiteID
	Body    []byte
}

// maxSites bounds roster lengths: far above any real cluster, far below
// anything that could make the prealloc dangerous.
const maxSites = 1 << 12

// AppendXact appends an encoded MsgXact envelope onto buf:
//
//	u32 master | u16 len(sites) | u32 each | u16 len(noVotes) | u32 each |
//	u32 len(body) | body
func AppendXact(buf []byte, env XactEnvelope) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(env.Master))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(env.Sites)))
	for _, id := range env.Sites {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(env.NoVotes)))
	for _, id := range env.NoVotes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(env.Body)))
	buf = append(buf, env.Body...)
	return buf
}

// EncodeXact encodes a MsgXact envelope into a fresh buffer; see
// AppendXact for the layout.
func EncodeXact(env XactEnvelope) []byte {
	size := 4 + 2 + 4*len(env.Sites) + 2 + 4*len(env.NoVotes) + 4 + len(env.Body)
	return AppendXact(make([]byte, 0, size), env)
}

// DecodeXact decodes an envelope, validating every count against the
// bytes present before allocating.
func DecodeXact(b []byte) (XactEnvelope, error) {
	var env XactEnvelope
	if len(b) < 4+2 {
		return env, fmt.Errorf("%w: xact envelope %d bytes", ErrEnvelope, len(b))
	}
	env.Master = proto.SiteID(binary.BigEndian.Uint32(b[0:4]))
	rest := b[4:]
	var err error
	if env.Sites, rest, err = decodeSiteList(rest); err != nil {
		return XactEnvelope{}, err
	}
	if env.NoVotes, rest, err = decodeSiteList(rest); err != nil {
		return XactEnvelope{}, err
	}
	if len(rest) < 4 {
		return XactEnvelope{}, fmt.Errorf("%w: xact envelope truncated before body length", ErrEnvelope)
	}
	n := binary.BigEndian.Uint32(rest[0:4])
	rest = rest[4:]
	if uint64(n) != uint64(len(rest)) {
		return XactEnvelope{}, fmt.Errorf("%w: xact body length %d, %d bytes present", ErrEnvelope, n, len(rest))
	}
	if n > 0 {
		env.Body = append([]byte(nil), rest...)
	}
	return env, nil
}

// decodeSiteList decodes a u16-counted list of u32 site IDs, returning the
// remaining bytes. The count is checked against both the site ceiling and
// the bytes actually present — in 64-bit arithmetic — before allocation.
func decodeSiteList(b []byte) ([]proto.SiteID, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated site list count", ErrEnvelope)
	}
	n := binary.BigEndian.Uint16(b[0:2])
	rest := b[2:]
	if n > maxSites {
		return nil, nil, fmt.Errorf("%w: site list of %d exceeds max %d", ErrEnvelope, n, maxSites)
	}
	if uint64(n)*4 > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: site list of %d needs %d bytes, %d present", ErrEnvelope, n, 4*uint64(n), len(rest))
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]proto.SiteID, n)
	for i := range out {
		out[i] = proto.SiteID(binary.BigEndian.Uint32(rest[4*i : 4*i+4]))
	}
	return out, rest[4*n:], nil
}
