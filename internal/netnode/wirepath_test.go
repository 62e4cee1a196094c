package netnode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"termproto/internal/proto"
)

// The data path end to end in one process: Submit and Txn ride the
// upgraded connection, from several goroutines at once, and report what
// the nodes decided.
func TestClientSubmitAndTxnOverWire(t *testing.T) {
	nodes, apis := startNodes(t, 3, memStores(3), true)
	c := NewClient(apis[1])
	defer c.Close()
	const n = 8
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			req := SubmitReq{TID: tid, Master: 1, Sites: []int{1, 2, 3}}
			if tid%2 == 1 {
				req.NoVotes = []int{3}
			}
			if err := c.Submit(req); err != nil {
				t.Errorf("submit %d: %v", tid, err)
			}
			if dto, err := c.Txn(proto.TxnID(tid)); err != nil || dto.TID != tid {
				t.Errorf("txn %d right after its submit: %+v, %v", tid, dto, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	for tid := proto.TxnID(1); tid <= n; tid++ {
		want := proto.Commit
		if tid%2 == 1 {
			want = proto.Abort // site 3 was scripted to vote no
		}
		waitDecided(t, nodes, tid, want)
		dto, err := c.Txn(tid)
		if err != nil {
			t.Fatal(err)
		}
		if dto.Outcome != want.String() || !dto.Started || dto.Master != 1 || len(dto.Sites) != 3 ||
			dto.DecidedAtMicro == 0 || dto.State == "" {
			t.Errorf("txn %d over the wire = %+v, want a started %s with roster, state and instant", tid, dto, want)
		}
	}
	if dto, err := c.Txn(99); err != nil || dto.Started || dto.Outcome != "none" {
		t.Errorf("unknown txn = %+v, %v", dto, err)
	}
}

// upgrade opens a raw data-path connection to a node's API port.
func upgrade(t *testing.T, addr, token string) (net.Conn, *http.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	fmt.Fprintf(conn, "GET /wire HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", token)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn, resp
}

// Anything on /wire that is not a well-formed submit to this site or a
// query closes the connection, answers nothing and starts nothing.
func TestWireHostileInputClosesConnection(t *testing.T) {
	nodes, apis := startNodes(t, 3, memStores(3), true)
	addr := apis[1]

	if _, resp := upgrade(t, addr, "TPNX/9"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upgrade with a bad token answered %s, want 400", resp.Status)
	}

	frame := func(body []byte) []byte { return sealFrame(append(beginFrame(nil), body...)) }
	submit := func(to, master proto.SiteID, sites ...proto.SiteID) []byte {
		return EncodeMsg(proto.Msg{TID: 1, To: to, Kind: proto.MsgXact,
			Payload: EncodeXact(XactEnvelope{Master: master, Sites: sites})})
	}
	good := submit(1, 1, 1, 2, 3)
	for name, raw := range map[string][]byte{
		"oversize length":        binary.BigEndian.AppendUint32(nil, MaxFrame+1),
		"empty frame":            {0, 0, 0, 0},
		"unknown frame kind":     frame([]byte{9, 0, 0, 0, 0, 0, 0, 0, 1}),
		"an ack from the client": frame(AppendTID(nil, frameAck, 1)),
		"truncated query":        frame(AppendTID(nil, frameQuery, 1)[:5]),
		"truncated envelope":     frame(EncodeMsg(proto.Msg{TID: 1, To: 1, Kind: proto.MsgXact, Payload: good[msgHeadLen : len(good)-3]})),
		"not an xact":            frame(EncodeMsg(proto.Msg{TID: 1, From: 2, To: 1, Kind: proto.MsgCommit})),
		"submit for site 2":      frame(submit(2, 2, 1, 2, 3)),
		"master is not the site": frame(submit(1, 2, 1, 2, 3)),
		"one participant":        frame(submit(1, 1, 1)),
	} {
		conn, resp := upgrade(t, addr, WireUpgrade)
		if resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade answered %s", resp.Status)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
			t.Errorf("%s: node answered %x (%v), want the connection closed in silence", name, reply, err)
		}
	}
	for _, node := range nodes {
		if txns := node.Txns(); len(txns) != 0 {
			t.Errorf("site %d started %+v", node.opts.ID, txns)
		}
	}

	// And the well-formed one on the same port does start.
	conn, _ := upgrade(t, addr, WireUpgrade)
	if _, err := conn.Write(frame(good)); err != nil {
		t.Fatal(err)
	}
	if body, err := ReadFrame(conn); err != nil {
		t.Fatalf("no ack for a well-formed submit: %v", err)
	} else if tid, err := DecodeTID(body, frameAck); err != nil || tid != 1 {
		t.Fatalf("ack = %x (%v)", body, err)
	}
	waitDecided(t, nodes, 1, proto.Commit)
}

// http.Server.Close leaves hijacked connections alone: the node closes its
// own, and with them the goroutines serving them.
func TestNodeCloseReleasesWireConnections(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // no procfs: the goroutine count is the whole check
		}
		return len(ents)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	goroutines, open := runtime.NumGoroutine(), fds()

	nodes, apis := startNodes(t, 3, memStores(3), true)
	clients := make([]*Client, 12)
	for i := range clients {
		clients[i] = NewClient(apis[proto.SiteID(i%3+1)])
		if err := clients[i].Submit(SubmitReq{TID: uint64(i + 1), Master: i%3 + 1, Sites: []int{1, 2, 3}}); err != nil {
			t.Fatalf("submit %d: %v", i+1, err)
		}
	}
	for tid := proto.TxnID(1); int(tid) <= len(clients); tid++ {
		waitDecided(t, nodes, tid, proto.Commit)
	}
	for _, node := range nodes {
		node.Close() // with every client still connected
	}
	// Close returns when the goroutines have run their last statement, a
	// moment before the runtime stops counting them. The clients own none.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before\n%s", got, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if err := clients[0].Submit(SubmitReq{TID: 99, Master: 1, Sites: []int{1, 2, 3}}); err == nil {
		t.Error("submit to a closed node succeeded")
	}
	for _, c := range clients {
		c.Close()
	}
	if got := fds(); got > open {
		t.Errorf("%d descriptors open after Close, %d before", got, open)
	}
}
