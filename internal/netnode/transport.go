package netnode

import (
	"io"
	"net"
	"sync"
	"time"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/site"
)

// transport is one site's TCP layer under the shared link model: a
// listener for inbound peer connections and one lazily-dialed outbound
// connection per peer. site.Link decides every message's fate — the
// [T/4, T/2) delay, the bounce off a blocked link, the silent drop at a
// dead peer — and this type is how a frame reaches the far side when the
// far side is another process: put is the link's put, and a decoded
// inbound frame enters the destination's link through Receive. A frame
// that arrives has crossed: the receiving side has no blocklist of its own
// to drop it by, so a partition cannot lose a message the sender's link
// let through.
type transport struct {
	*site.Link
	self   proto.SiteID
	delayT time.Duration
	peers  map[proto.SiteID]string
	logf   func(string, ...any)

	ln net.Listener

	mu      sync.Mutex
	out     map[proto.SiteID]*outConn
	inbound map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup

	// Wire-level observability, resolved once by setMetrics: frame and
	// byte counters per direction. A nil *obs.Counter is inert, so the
	// hot path records unconditionally — an atomic add, no allocation.
	obsFramesSent, obsFramesRecv *obs.Counter
	obsBytesSent, obsBytesRecv   *obs.Counter
}

// outConn serializes writes on one outbound link.
type outConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func newTransport(self proto.SiteID, t time.Duration, seed int64,
	peers map[proto.SiteID]string, deliver func(proto.Msg), logf func(string, ...any)) *transport {
	tr := &transport{
		self:    self,
		delayT:  t,
		peers:   peers,
		logf:    logf,
		out:     make(map[proto.SiteID]*outConn),
		inbound: make(map[net.Conn]struct{}),
	}
	tr.Link = site.NewLink(self, t, seed, deliver, tr.put)
	return tr
}

// setMetrics resolves the transport's wire counters, and the link's
// lateness histogram, from the registry.
// Call before listen.
func (t *transport) setMetrics(r *obs.Registry) {
	t.obsFramesSent = r.Counter(obs.MNetFrames, obs.L("dir", "sent"))
	t.obsFramesRecv = r.Counter(obs.MNetFrames, obs.L("dir", "recv"))
	t.obsBytesSent = r.Counter(obs.MNetBytes, obs.L("dir", "sent"))
	t.obsBytesRecv = r.Counter(obs.MNetBytes, obs.L("dir", "recv"))
	t.Late = r.Histogram(obs.MLinkCrossLate)
}

// listen binds the protocol listener and starts the accept loop,
// returning the bound address (useful with ":0").
func (t *transport) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return ln.Addr().String(), nil
}

func (t *transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn runs one inbound peer connection: hello, then frames until
// error or close.
func (t *transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	if _, err := ReadHello(conn); err != nil {
		t.logf("transport: rejected connection from %s: %v", conn.RemoteAddr(), err)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// One scratch buffer serves every frame on this connection: DecodeMsg
	// copies the payload out, so the receive loop itself is allocation-free
	// once the buffer has grown to the connection's working frame size.
	var scratch []byte
	for {
		var body []byte
		var err error
		body, scratch, err = ReadFrameInto(conn, scratch)
		if err != nil {
			return
		}
		m, err := DecodeMsg(body)
		if err != nil {
			return
		}
		t.obsFramesRecv.Inc()
		t.obsBytesRecv.Add(uint64(len(body)) + 4)
		if !t.Receive(m) {
			return // closed
		}
	}
}

// put is the link's far side, called on its queue goroutine: a frame for a
// connected peer is written in place; anything that may wait — no
// connection yet, or one another writer holds — goes through write on a
// goroutine of its own, because a dial can block for 4T + 100 ms.
func (t *transport) put(m proto.Msg) error {
	t.mu.Lock()
	oc := t.out[m.To]
	t.mu.Unlock()
	if oc != nil && oc.mu.TryLock() {
		conn := oc.conn
		if conn != nil && WriteMsg(conn, m) != nil {
			conn.Close() // dead since its last use: write redials
			oc.conn, conn = nil, nil
		}
		oc.mu.Unlock()
		if conn != nil {
			t.countSent(m)
			return nil
		}
	}
	go func() {
		if t.write(m) != nil {
			t.Lost(m)
		}
	}()
	return nil
}

// write puts one message on the outbound link to m.To, dialing if needed.
// A write failure on a cached connection gets one redial-and-retry: the
// link may have died since its last use (the peer crashed and was
// restarted), and a live replacement process at the same address deserves
// the message.
func (t *transport) write(m proto.Msg) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return net.ErrClosed
	}
	oc := t.out[m.To]
	if oc == nil {
		oc = &outConn{}
		t.out[m.To] = oc
	}
	addr := t.peers[m.To]
	t.mu.Unlock()

	oc.mu.Lock()
	defer oc.mu.Unlock()
	for retried := false; ; retried = true {
		if oc.conn == nil {
			if err := t.redial(oc, addr); err != nil {
				return err
			}
		}
		err := WriteMsg(oc.conn, m)
		if err == nil {
			t.countSent(m)
			return nil
		}
		oc.conn.Close()
		oc.conn = nil
		if retried {
			return err
		}
	}
}

// countSent records one outbound frame. The frame size is reconstructed
// from the message (length prefix + fixed header + payload) rather than
// threaded back out of WriteMsg, keeping the write path's signature and
// allocation profile untouched.
func (t *transport) countSent(m proto.Msg) {
	t.obsFramesSent.Inc()
	t.obsBytesSent.Add(uint64(4 + msgHeadLen + len(m.Payload)))
}

// redial establishes a fresh outbound connection. Called with oc.mu held.
func (t *transport) redial(oc *outConn, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, t.delayT*4+100*time.Millisecond)
	if err != nil {
		return err
	}
	if _, err := conn.Write(EncodeHello(t.self)); err != nil {
		conn.Close()
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	t.mu.Unlock()
	oc.conn = conn
	t.watch(oc, conn)
	return nil
}

// watch reaps an outbound connection the moment the peer closes it. The
// receiving side never sends data on this direction of the link, so a
// returning read means the connection is dead — the peer was killed or
// restarted. Clearing the cache makes the next write redial instead of
// burying the message in a half-closed socket; a restarted peer must be
// reachable for inquiry replies without waiting for a write error.
func (t *transport) watch(oc *outConn, conn net.Conn) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		io.Copy(io.Discard, conn) //nolint:errcheck // any return means dead
		conn.Close()
		oc.mu.Lock()
		if oc.conn == conn {
			oc.conn = nil
		}
		oc.mu.Unlock()
	}()
}

// Close shuts the link, the listener and every connection.
func (t *transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ocs := make([]*outConn, 0, len(t.out))
	for _, oc := range t.out {
		ocs = append(ocs, oc)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for conn := range t.inbound {
		conns = append(conns, conn)
	}
	t.mu.Unlock()
	t.Link.Close() // outside t.mu: the queue goroutine may be inside put
	if t.ln != nil {
		t.ln.Close()
	}
	for _, oc := range ocs {
		oc.mu.Lock()
		if oc.conn != nil {
			oc.conn.Close()
			oc.conn = nil
		}
		oc.mu.Unlock()
	}
	for _, conn := range conns {
		conn.Close()
	}
	t.wg.Wait()
}
