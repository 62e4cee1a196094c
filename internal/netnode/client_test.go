package netnode

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnection: a client upgrades one connection at its
// first submit and keeps it, so back to back submissions neither dial nor
// leave a TIME_WAIT socket behind per transaction. The fake server speaks
// only the upgrade and the ack.
func TestClientReusesConnection(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/wire" || r.Header.Get("Upgrade") != WireUpgrade {
			http.Error(w, "want GET /wire", http.StatusBadRequest)
			return
		}
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		defer conn.Close()
		conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + WireUpgrade + "\r\n\r\n")) //nolint:errcheck
		for {
			m, err := ReadMsg(rw)
			if err != nil {
				return
			}
			if _, err := conn.Write(sealFrame(AppendTID(beginFrame(nil), frameAck, m.TID))); err != nil {
				return
			}
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := NewClient(srv.Listener.Addr().String())
	defer c.Close() // srv.Close does not close a hijacked connection
	for tid := uint64(1); tid <= 50; tid++ {
		if err := c.Submit(SubmitReq{TID: tid, Master: 1, Sites: []int{1, 2, 3}}); err != nil {
			t.Fatalf("submit %d: %v", tid, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("50 submits opened %d connections, want 1", n)
	}
}
