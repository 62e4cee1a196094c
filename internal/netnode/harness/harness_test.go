package harness

import (
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/netnode"
	"termproto/internal/proto"
)

// harnessT is deliberately wide: these tests cross real process
// boundaries, so protocol timing must dominate exec/scheduler jitter.
const harnessT = 150 * time.Millisecond

func startNet(t *testing.T, n int) *Localnet {
	t.Helper()
	l, err := Start(Options{N: n, T: harnessT, Dir: t.TempDir(), Seed: 7})
	if err != nil {
		t.Fatalf("start localnet: %v", err)
	}
	t.Cleanup(l.Stop)
	return l
}

func submit(t *testing.T, l *Localnet, tid uint64, master int, key, val string) {
	t.Helper()
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte(val)}})
	sites := make([]int, 0, len(l.Sites()))
	for _, id := range l.Sites() {
		sites = append(sites, int(id))
	}
	err := l.Client(proto.SiteID(master)).Submit(netnode.SubmitReq{
		TID: tid, Master: master, Sites: sites, Payload: ops,
	})
	if err != nil {
		t.Fatalf("submit txn %d: %v", tid, err)
	}
}

// waitOutcome polls the given sites until each reports a decision for
// tid, requiring them to agree; it returns the common outcome.
func waitOutcome(t *testing.T, l *Localnet, tid uint64, sites []proto.SiteID) string {
	t.Helper()
	deadline := time.Now().Add(12 * time.Second)
	for {
		outcomes := make(map[string]int)
		decided := 0
		for _, id := range sites {
			dto, err := l.Client(id).Txn(proto.TxnID(tid))
			if err == nil && dto.Outcome != "none" {
				outcomes[dto.Outcome]++
				decided++
			}
		}
		if decided == len(sites) {
			if len(outcomes) != 1 {
				t.Fatalf("txn %d: inconsistent outcomes %v", tid, outcomes)
			}
			for o := range outcomes {
				return o
			}
		}
		if time.Now().After(deadline) {
			for _, id := range sites {
				t.Logf("site %d log tail:\n%s", id, l.LogTail(id, 15))
			}
			t.Fatalf("txn %d: only %d/%d sites decided", tid, decided, len(sites))
		}
		time.Sleep(harnessT / 4)
	}
}

// TestLocalnetCommit drives one transaction through three real termnode
// processes over TCP and checks the write lands at every site.
func TestLocalnetCommit(t *testing.T) {
	l := startNet(t, 3)
	submit(t, l, 1, 1, "k", "v")
	if o := waitOutcome(t, l, 1, l.Sites()); o != "commit" {
		t.Fatalf("outcome = %s, want commit", o)
	}
	for _, id := range l.Sites() {
		snap, _, err := l.Client(id).Snapshot()
		if err != nil {
			t.Fatalf("snapshot site %d: %v", id, err)
		}
		if string(snap["k"]) != "v" {
			t.Errorf("site %d: k = %q, want \"v\"", id, snap["k"])
		}
	}
}

// TestLocalnetStartFailsFastWhenADaemonExits gives every daemon a
// placement it cannot decode, so each exits at boot: Start must report
// that with the daemons' log tails at once, not after its 10 s wait.
func TestLocalnetStartFailsFastWhenADaemonExits(t *testing.T) {
	if _, err := buildBinary(); err != nil { // the build is not what is timed
		t.Fatal(err)
	}
	start := time.Now()
	l, err := Start(Options{N: 3, T: harnessT, Dir: t.TempDir(), Placement: []byte("not an assignment")})
	if err == nil {
		l.Stop()
		t.Fatal("Start succeeded with daemons that cannot decode their placement")
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Start failed after %s, want under 3s", took)
	}
	if !strings.Contains(err.Error(), "not running") || !strings.Contains(err.Error(), "-placement") {
		t.Fatalf("error does not name the exited daemon and its log: %v", err)
	}
}

// TestLocalnetCrashAfterPrepared SIGKILLs the coordinator mid-protocol —
// after the slaves have received the transaction but (with high
// probability) before the commit decision propagates. The surviving
// slaves must terminate the transaction on their own; the restarted
// coordinator must find the prepared transaction in-doubt in its WAL and
// resolve it to the slaves' outcome through a real MsgInquire round over
// TCP. The kill point races the protocol, so an attempt in which the
// slaves never learned of the transaction (nothing to terminate) is
// retried.
func TestLocalnetCrashAfterPrepared(t *testing.T) {
	for attempt := 1; ; attempt++ {
		l := startNet(t, 3)
		tid := uint64(attempt)
		submit(t, l, tid, 1, "crashkey", "crashval")
		time.Sleep(harnessT * 8 / 10) // ~0.8T: xact delivered, decision not yet
		if err := l.Kill(1); err != nil {
			t.Fatalf("kill coordinator: %v", err)
		}

		slaves := []proto.SiteID{2, 3}
		learned := false
		for _, id := range slaves {
			if dto, err := l.Client(id).Txn(proto.TxnID(tid)); err == nil && dto.Started {
				learned = true
			}
		}
		if !learned {
			l.Stop()
			if attempt >= 3 {
				t.Fatal("slaves never received the transaction in 3 attempts")
			}
			continue
		}

		// The slaves decide without the coordinator (§5 termination
		// protocol; with the transient fix a prepared slave commits after
		// the silence bound).
		outcome := waitOutcome(t, l, tid, slaves)

		if err := l.Restart(1); err != nil {
			t.Fatalf("restart coordinator: %v", err)
		}
		if err := l.WaitHealthy(15 * time.Second); err != nil {
			t.Fatalf("coordinator never recovered: %v", err)
		}
		rec, err := l.Client(1).Recovery()
		if err != nil {
			t.Fatalf("recovery report: %v", err)
		}
		if !rec.Ran || rec.InDoubt != 1 || rec.Unresolved != 0 {
			t.Fatalf("recovery = %+v, want in-doubt 1 fully resolved", rec)
		}
		dto, err := l.Client(1).Txn(proto.TxnID(tid))
		if err != nil || dto.Outcome != outcome {
			t.Fatalf("coordinator outcome = %q (%v), slaves decided %q", dto.Outcome, err, outcome)
		}
		for _, id := range l.Sites() {
			snap, _, err := l.Client(id).Snapshot()
			if err != nil {
				t.Fatalf("snapshot site %d: %v", id, err)
			}
			got := string(snap["crashkey"])
			if outcome == "commit" && got != "crashval" {
				t.Errorf("site %d: crashkey = %q after commit", id, got)
			}
			if outcome == "abort" && got != "" {
				t.Errorf("site %d: crashkey = %q after abort", id, got)
			}
		}
		return
	}
}

// TestLocalnetClearData wipes a killed site's workspace and restarts it
// cold: the node must come back healthy with no inherited state and pull
// the committed keyspace from its peers during startup catch-up.
func TestLocalnetClearData(t *testing.T) {
	l := startNet(t, 3)
	submit(t, l, 1, 1, "survivor", "data")
	if o := waitOutcome(t, l, 1, l.Sites()); o != "commit" {
		t.Fatalf("outcome = %s, want commit", o)
	}
	if err := l.Kill(3); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := l.ClearData(3); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if err := l.Restart(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := l.WaitHealthy(15 * time.Second); err != nil {
		t.Fatalf("cold site never became healthy: %v", err)
	}
	snap, _, err := l.Client(3).Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if string(snap["survivor"]) != "data" {
		t.Errorf("cold site missed catch-up: survivor = %q", snap["survivor"])
	}
}

// TestLocalnetClientSurvivesRestart: the localnet hands out one client per
// site, and that client's connection outlives neither a SIGKILL nor has to:
// the submit after the restart finds the connection dead, dials the new
// process and succeeds.
func TestLocalnetClientSurvivesRestart(t *testing.T) {
	l := startNet(t, 3)
	c := l.Client(1)
	if c != l.Client(1) {
		t.Fatal("Client(1) returned a different client on the second call")
	}
	submit(t, l, 1, 1, "before", "kill")
	if o := waitOutcome(t, l, 1, l.Sites()); o != "commit" {
		t.Fatalf("outcome before the kill = %s, want commit", o)
	}
	if err := l.Kill(1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := c.Submit(netnode.SubmitReq{TID: 2, Master: 1, Sites: []int{1, 2, 3}}); err == nil {
		t.Fatal("submit to a killed site succeeded")
	}
	if err := l.Restart(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := l.WaitHealthy(15 * time.Second); err != nil {
		t.Fatalf("site 1 never recovered: %v", err)
	}
	submit(t, l, 3, 1, "after", "restart")
	if o := waitOutcome(t, l, 3, l.Sites()); o != "commit" {
		t.Fatalf("outcome after the restart = %s, want commit", o)
	}
}

// TestLocalnetKilledBetweenSubmits is the same without the failed call in
// between: the client's connection is to a dead process when the second
// submit goes out, and the one redial-and-retry carries it.
func TestLocalnetKilledBetweenSubmits(t *testing.T) {
	l := startNet(t, 3)
	submit(t, l, 1, 1, "before", "kill")
	if err := l.Kill(1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := l.Restart(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := l.WaitHealthy(15 * time.Second); err != nil { // over HTTP: the wire connection stays as it was
		t.Fatalf("site 1 never recovered: %v", err)
	}
	submit(t, l, 2, 1, "after", "restart")
	if o := waitOutcome(t, l, 2, l.Sites()); o != "commit" {
		t.Fatalf("outcome after the restart = %s, want commit", o)
	}
}

// TestLocalnetCut: Partition leaves every live daemon blocking the other
// side once it returns, a site killed before the cut and restarted during
// it boots behind it, and Heal empties every list.
func TestLocalnetCut(t *testing.T) {
	l := startNet(t, 3)
	expect := func(when string, want map[proto.SiteID][]int) {
		t.Helper()
		for id, ids := range want {
			st, err := l.Client(id).Stats()
			if err != nil {
				t.Fatalf("%s: site %d stats: %v", when, id, err)
			}
			if !slices.Equal(st.Blocked, ids) {
				t.Errorf("%s: site %d blocks %v, want %v", when, id, st.Blocked, ids)
			}
		}
	}
	if err := l.Kill(3); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := l.Partition(3); err != nil {
		t.Fatalf("partition: %v", err)
	}
	expect("after the cut", map[proto.SiteID][]int{1: {3}, 2: {3}})
	if err := l.Restart(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := l.WaitHealthy(15 * time.Second); err != nil {
		t.Fatalf("site 3 never recovered: %v", err)
	}
	expect("after the restart", map[proto.SiteID][]int{1: {3}, 2: {3}, 3: {1, 2}})
	if err := l.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	expect("after the heal", map[proto.SiteID][]int{1: nil, 2: nil, 3: nil})
}

// Every port freePorts hands out is distinct, across calls too, and lies
// below the kernel's ephemeral range, where no outgoing connection can take
// it between the test listen and the daemon's bind.
func TestFreePortsBelowEphemeralRange(t *testing.T) {
	_, hi := portRange()
	seen := map[string]bool{}
	for range 3 {
		addrs, err := freePorts(8)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range addrs {
			_, p, err := net.SplitHostPort(addr)
			if err != nil {
				t.Fatal(err)
			}
			if port, _ := strconv.Atoi(p); port >= hi || port < 1024 {
				t.Errorf("port %d outside [1024, %d)", port, hi)
			}
			if seen[addr] {
				t.Errorf("%s handed out twice", addr)
			}
			seen[addr] = true
		}
	}
}
