package netnode

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnection: a client drains every response, so back to
// back submissions ride one keep-alive connection instead of dialing (and
// leaving a TIME_WAIT socket behind) per transaction.
func TestClientReusesConnection(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct{}{}) // what POST /submit answers
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := NewClient(srv.Listener.Addr().String())
	for tid := uint64(1); tid <= 50; tid++ {
		if err := c.Submit(SubmitReq{TID: tid, Master: 1, Sites: []int{1, 2, 3}}); err != nil {
			t.Fatalf("submit %d: %v", tid, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("50 submits opened %d connections, want 1", n)
	}
}
