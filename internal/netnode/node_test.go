package netnode

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
)

const testT = 30 * time.Millisecond

// freePorts reserves n distinct localhost ports by binding and closing
// ephemeral listeners.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		out[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out
}

// startNodes brings up sites 1..n in one process over real localhost TCP,
// each with its own MemStore; stores[i] is site i+1's log. withAPI starts
// each site's admin API too, at the address returned for it.
func startNodes(t *testing.T, n int, stores []wal.Store, withAPI bool) ([]*Node, map[proto.SiteID]string) {
	t.Helper()
	return startNodesWith(t, n, stores, withAPI, func(*Options) {})
}

// startNodesWith is startNodes with every node's options adjusted by tune.
func startNodesWith(t *testing.T, n int, stores []wal.Store, withAPI bool, tune func(*Options)) ([]*Node, map[proto.SiteID]string) {
	t.Helper()
	addrs := freePorts(t, 2*n)
	peers := make(map[proto.SiteID]string, n)
	apis := make(map[proto.SiteID]string, n)
	for i := 0; i < n; i++ {
		peers[proto.SiteID(i+1)] = addrs[i]
		if withAPI {
			apis[proto.SiteID(i+1)] = addrs[n+i]
		}
	}
	nodes := make([]*Node, n)
	for i := n - 1; i >= 0; i-- { // site 1 last: its recovery can reach the others
		id := proto.SiteID(i + 1)
		opts := Options{
			ID: id, Protocol: core.Protocol{TransientFix: true}, T: testT,
			Addr: peers[id], Peers: peers,
			Store: stores[i],
			Logf:  func(format string, args ...any) { t.Logf("site %d: "+format, append([]any{id}, args...)...) },
		}
		tune(&opts)
		node := NewNode(opts)
		if err := node.Start(); err != nil {
			t.Fatalf("start site %d: %v", id, err)
		}
		if withAPI {
			if _, err := node.StartAPI(apis[id]); err != nil {
				t.Fatalf("start api %d: %v", id, err)
			}
		}
		nodes[i] = node
		t.Cleanup(node.Close)
	}
	return nodes, apis
}

func memStores(n int) []wal.Store {
	out := make([]wal.Store, n)
	for i := range out {
		out[i] = &wal.MemStore{}
	}
	return out
}

func waitDecided(t *testing.T, nodes []*Node, tid proto.TxnID, want proto.Outcome) {
	t.Helper()
	deadline := time.Now().Add(60 * testT)
	for {
		decided := 0
		for _, node := range nodes {
			if st, _ := node.Txn(tid); st.Outcome == want {
				decided++
			}
		}
		if decided == len(nodes) {
			return
		}
		if time.Now().After(deadline) {
			for _, node := range nodes {
				st, _ := node.Txn(tid)
				t.Logf("site %d: outcome=%s state=%s", node.opts.ID, st.Outcome, st.State)
			}
			t.Fatalf("txn %d: %d/%d sites decided %s", tid, decided, len(nodes), want)
		}
		time.Sleep(testT / 4)
	}
}

func TestNodesCommitOverTCP(t *testing.T) {
	nodes, _ := startNodes(t, 3, memStores(3), false)
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "k", Value: []byte("v")}})
	if err := nodes[0].Submit(1, 1, []proto.SiteID{1, 2, 3}, nil, ops); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDecided(t, nodes, 1, proto.Commit)
	for _, node := range nodes {
		if v, ok := node.Engine().Get("k"); !ok || string(v) != "v" {
			t.Errorf("site %d: k = %q, %v; want \"v\"", node.opts.ID, v, ok)
		}
	}
}

func TestNodesNoVoteAborts(t *testing.T) {
	nodes, _ := startNodes(t, 3, memStores(3), false)
	// An empty payload with a scripted no-vote at site 3: the verdicts
	// ride the MsgXact envelope.
	if err := nodes[0].Submit(1, 1, []proto.SiteID{1, 2, 3}, []proto.SiteID{3}, nil); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDecided(t, nodes, 1, proto.Abort)
}

func TestNodesPartitionBounces(t *testing.T) {
	nodes, _ := startNodes(t, 3, memStores(3), false)
	// Cut site 1 off from both slaves before submitting: every xact bounces
	// back undeliverable and the master aborts unilaterally; the slaves
	// never learn of the transaction.
	nodes[0].SetBlocked([]proto.SiteID{2, 3}, time.Time{})
	nodes[1].SetBlocked([]proto.SiteID{1}, time.Time{})
	nodes[2].SetBlocked([]proto.SiteID{1}, time.Time{})
	if err := nodes[0].Submit(1, 1, []proto.SiteID{1, 2, 3}, nil, nil); err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(60 * testT)
	for st, _ := nodes[0].Txn(1); st.Outcome != proto.Abort; st, _ = nodes[0].Txn(1) {
		if time.Now().After(deadline) {
			t.Fatalf("master never aborted: %+v", st)
		}
		time.Sleep(testT / 4)
	}
	for _, node := range nodes[1:] {
		if st, started := node.Txn(1); started || st.Outcome != proto.None {
			t.Errorf("site %d learned of the txn across the boundary: %+v", node.opts.ID, st)
		}
	}
	if _, _, bounced, _ := nodes[0].Counters(); bounced == 0 {
		t.Error("no bounced messages counted at the master")
	}
}

// TestNodeStartupRecovery restarts a site over a surviving log that holds
// a prepared-but-undecided transaction and a missed commit: the in-doubt
// transaction must resolve through a real MsgInquire round trip against a
// peer's durable decision, and the missed key must arrive via the
// admin-API catch-up pull.
func TestNodeStartupRecovery(t *testing.T) {
	stores := memStores(3)
	sites := []proto.SiteID{1, 2, 3}
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "doubt", Value: []byte("yes")}})

	// Site 1's log: txn 7 executed and prepared, no decision — the state a
	// crash between vote and decision leaves behind.
	prep1 := engine.New("prep-1", stores[0])
	if !prep1.ExecuteAt(7, ops, sites) {
		t.Fatal("prep site 1: vote was no")
	}
	// Sites 2 and 3: txn 7 committed, plus a key site 1 missed entirely.
	for i := 1; i < 3; i++ {
		prep := engine.New(fmt.Sprintf("prep-%d", i+1), stores[i])
		if !prep.ExecuteAt(7, ops, sites) {
			t.Fatalf("prep site %d: vote was no", i+1)
		}
		prep.Commit(7)
		prep.Put("missed", []byte("while-down"))
	}

	nodes, _ := startNodes(t, 3, stores, true) // site 1 starts last and recovers
	st, err := nodes[0].RecoveryResult()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if st == nil || st.InDoubt != 1 || st.ResolvedCommit != 1 {
		t.Fatalf("recovery stats = %+v, want in-doubt 1 resolved-commit 1", st)
	}
	if o, ok := nodes[0].Engine().Outcome(7); !ok || o != proto.Commit {
		t.Fatalf("txn 7 at site 1 = %v, %v; want commit", o, ok)
	}
	if v, _ := nodes[0].Engine().Get("doubt"); string(v) != "yes" {
		t.Errorf("doubt = %q, want \"yes\"", v)
	}
	if st.CaughtUpKeys == 0 {
		t.Error("no keys caught up")
	}
	if v, _ := nodes[0].Engine().Get("missed"); string(v) != "while-down" {
		t.Errorf("missed = %q, want \"while-down\"", v)
	}
}

// A site restarted behind a cut leaves its in-doubt transaction
// unresolved: every inquiry bounces. The blocklist that lifts the cut has
// it ask again, and the peers' durable commit resolves the transaction.
func TestNodeLiftedBlockAsksAgain(t *testing.T) {
	stores := memStores(3)
	sites := []proto.SiteID{1, 2, 3}
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "doubt", Value: []byte("yes")}})
	if !engine.New("prep-1", stores[0]).ExecuteAt(7, ops, sites) {
		t.Fatal("prep site 1: vote was no")
	}
	for i := 1; i < 3; i++ {
		prep := engine.New(fmt.Sprintf("prep-%d", i+1), stores[i])
		if !prep.ExecuteAt(7, ops, sites) {
			t.Fatalf("prep site %d: vote was no", i+1)
		}
		prep.Commit(7)
	}
	nodes, _ := startNodesWith(t, 3, stores, false, func(o *Options) {
		if o.Blocked = []proto.SiteID{1}; o.ID == 1 {
			o.Blocked = []proto.SiteID{2, 3}
		}
	})
	if st, err := nodes[0].RecoveryResult(); err != nil || st.InDoubt != 1 || st.Unresolved != 1 {
		t.Fatalf("recovery behind the cut = %+v (%v), want txn 7 left in doubt", st, err)
	}
	for _, node := range nodes[1:] {
		node.SetBlocked(nil, time.Time{})
	}
	nodes[0].SetBlocked(nil, time.Time{})
	for deadline := time.Now().Add(20 * testT); len(nodes[0].site.Unresolved()) != 0; time.Sleep(testT / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("txn 7 still in doubt after the cut lifted: %+v", nodes[0].site.Unresolved())
		}
	}
	if o, _ := nodes[0].Engine().Outcome(7); o != proto.Commit {
		t.Fatalf("txn 7 at site 1 = %v, want commit", o)
	}
	if v, _ := nodes[0].Engine().Get("doubt"); string(v) != "yes" {
		t.Errorf("doubt = %q, want \"yes\"", v)
	}
}

// A blocklist arrives from outside the process — POST /partition, or
// termnode -blocked at start-up — and one naming the site itself or a site
// that is not its peer would partition nothing: it is refused, as is an
// instant before the epoch.
func TestPartitionInputsValidated(t *testing.T) {
	nodes, _ := startNodes(t, 3, memStores(3), false)
	future := time.Now().Add(time.Hour).UnixMicro()
	for _, c := range []struct {
		body       string
		code       int
		blockedNow []int
	}{
		{`{"blocked":[1]}`, http.StatusBadRequest, nil},
		{`{"blocked":[2,4]}`, http.StatusBadRequest, nil},
		{`{"blocked":[0]}`, http.StatusBadRequest, nil},
		{`{"blocked":[-2]}`, http.StatusBadRequest, nil},
		{`{"blocked":[2],"atMicro":-1}`, http.StatusBadRequest, nil},
		{`{"blocked":"2"}`, http.StatusBadRequest, nil},
		{`{"blocked":[2,3]}`, http.StatusOK, []int{2, 3}},
		{fmt.Sprintf(`{"blocked":[2],"atMicro":%d}`, future), http.StatusOK, []int{2, 3}},
		{`{"blocked":[]}`, http.StatusOK, nil},
	} {
		rec := httptest.NewRecorder()
		nodes[0].handlePartition(rec, httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Errorf("POST /partition %s answered %d, want %d", c.body, rec.Code, c.code)
		}
		var now []int
		for _, id := range nodes[0].tr.BlockedList() {
			now = append(now, int(id))
		}
		slices.Sort(now)
		if !slices.Equal(now, c.blockedNow) {
			t.Errorf("after POST /partition %s site 1 blocks %v, want %v", c.body, now, c.blockedNow)
		}
	}

	peers := map[proto.SiteID]string{1: "127.0.0.1:1", 2: "127.0.0.1:2"}
	for _, blocked := range [][]proto.SiteID{{1}, {3}} {
		node := NewNode(Options{ID: 1, Protocol: core.Protocol{}, Peers: peers, Store: &wal.MemStore{}, Blocked: blocked})
		if err := node.Start(); err == nil {
			node.Close()
			t.Errorf("a node started with -blocked %v", blocked)
		}
	}
}
