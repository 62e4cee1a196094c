package site

import (
	"strings"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// put is a one-key write of "v".
func put(key string) []byte {
	return engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
}

// nodeMesh is n engine sites, each a Node with its own registry, stepped
// by one scheduler over one simulated network whose every hop takes T.
type nodeMesh struct {
	sched *sim.Scheduler
	nodes map[proto.SiteID]*Node
	regs  map[proto.SiteID]*obs.Registry
}

func newNodeMesh(n int, t sim.Duration) *nodeMesh {
	m := &nodeMesh{sched: sim.NewScheduler(), nodes: map[proto.SiteID]*Node{}, regs: map[proto.SiteID]*obs.Registry{}}
	net := simnet.New(simnet.Config{Sched: m.sched, T: t})
	for _, id := range roster(n) {
		m.regs[id] = obs.New()
		m.nodes[id] = NewNode(Site{
			ID: id, Clock: SchedClock{Sched: m.sched, Bound: t}, Transport: net,
			Engine: engine.New("site", &wal.MemStore{}),
		}, core.Protocol{TransientFix: true}, roster(n), nil, m.regs[id])
		net.Register(id, m.nodes[id])
	}
	return m
}

// A Node records its site's latencies in thousandths of T since the site
// learned of the transaction, whatever T is in ticks: the decided edge at
// every site, the prepared edge at every yes-voting engine site, and the
// commit under its shard.
func TestNodeRecordsThousandthsOfT(t *testing.T) {
	const T = 2 * sim.DefaultT
	m := newNodeMesh(3, T)
	m.nodes[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(3), Payload: put("k")})
	m.sched.Run()
	decided := []obs.Label{obs.L("protocol", core.Protocol{TransientFix: true}.Name()), obs.L("phase", "decided")}
	for id, n := range m.nodes {
		st, ok := n.Txn(1)
		if !ok || st.Outcome != proto.Commit {
			t.Fatalf("site %d = %+v/%v, want commit", id, st, ok)
		}
		want := int64(st.DecidedAt-st.StartedAt) * 1000 / int64(T)
		snap := m.regs[id].Snapshot()
		f := snap.Family(obs.MRoundLatency)
		var sum int64
		for _, s := range f.Series {
			if s.Label("phase") == "decided" {
				sum = s.Sum
			}
		}
		if got := snap.Value(obs.MRoundLatency, decided...); got != 1 || sum != want {
			t.Fatalf("site %d decided: %d observations summing %d, want 1 of %d", id, got, sum, want)
		}
		if want < 1000 {
			t.Fatalf("site %d decided %d thousandths of T after learning of the txn, want at least one hop", id, want)
		}
		if got := snap.Value(obs.MRoundLatency, obs.L("phase", "prepared")); got != 1 {
			t.Fatalf("site %d prepared observations = %d, want 1", id, got)
		}
		if got := snap.Value(obs.MShardCommitLatency, obs.L("shard", "0")); got != 1 {
			t.Fatalf("site %d shard-0 commit observations = %d, want 1", id, got)
		}
	}
}

// InstallPlacement writes the directory epoch records the log lacks, once:
// the next incarnation over the same engine finds them and writes none.
func TestNodeInstallPlacement(t *testing.T) {
	asg, err := placement.Arithmetic(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := placement.NewDirectory(asg)
	eng := engine.New("site", &wal.MemStore{})
	s := Site{ID: 1, Clock: SchedClock{Sched: sim.NewScheduler(), Bound: sim.DefaultT}, Engine: eng}
	if got := NewNode(s, core.Protocol{}, roster(3), dir, nil).InstallPlacement(); got != 1 {
		t.Fatalf("first incarnation wrote %d epoch records, want 1", got)
	}
	if got := NewNode(s, core.Protocol{}, roster(3), dir, nil).InstallPlacement(); got != 0 {
		t.Fatalf("second incarnation wrote %d epoch records, want 0", got)
	}
	stack, err := placement.StackFromSnapshot(eng.Snapshot())
	if err != nil || len(stack) != 1 || !stack[0].Equal(asg) {
		t.Fatalf("log's epoch stack = %v (%v), want the directory's epoch 0", stack, err)
	}
}

// Txn answers a transaction this incarnation never hosted from durable
// state: its logged decision, or state "q" while it is in doubt.
func TestNodeTxnFallsBackToDurableState(t *testing.T) {
	eng := engine.New("site", &wal.MemStore{})
	eng.Commit(7)
	if !eng.ExecuteAt(8, put("k"), roster(2)) {
		t.Fatal("txn 8 did not prepare")
	}
	s := Site{ID: 1, Clock: SchedClock{Sched: sim.NewScheduler(), Bound: sim.DefaultT}, Engine: eng}
	n := NewNode(s, core.Protocol{}, roster(2), nil, nil)
	if st, ok := n.Txn(7); !ok || st.Outcome != proto.Commit || st.State != "q" {
		t.Fatalf("decided txn 7 = %+v/%v, want a durable commit", st, ok)
	}
	if st, ok := n.Txn(8); !ok || st.Outcome != proto.None {
		t.Fatalf("in-doubt txn 8 = %+v/%v, want started and undecided", st, ok)
	}
	if _, ok := n.Txn(9); ok {
		t.Fatal("unknown txn 9 reported as started")
	}
}

// Recover keeps what it could not resolve, and the heal edge's RetryInDoubt
// asks again: the answer resolves it once a decided peer is reachable, and
// after that nothing is pending. On the simulated network the inquiry
// across the cut shows as a bounce, and the decision lands no earlier than
// one round trip after the heal.
func TestNodeRecoverThenRetryInDoubt(t *testing.T) {
	sched, rec := sim.NewScheduler(), &trace.Recorder{}
	net := simnet.New(simnet.Config{Sched: sched, T: sim.DefaultT, Trace: rec})
	eng := engine.New("site", &wal.MemStore{})
	if !eng.ExecuteAt(5, put("k"), roster(2)) {
		t.Fatal("txn 5 did not prepare")
	}
	peer := engine.New("peer", &wal.MemStore{})
	peer.Commit(5)
	nodes := map[proto.SiteID]*Node{}
	for id, e := range map[proto.SiteID]*engine.Engine{1: eng, 2: peer} {
		nodes[id] = NewNode(Site{ID: id, Clock: SchedClock{Sched: sched, Bound: sim.DefaultT}, Transport: net, Engine: e, Trace: rec.Append},
			core.Protocol{}, roster(2), nil, nil)
		net.Register(id, nodes[id])
	}
	net.Cut(0, 2)
	var st Stats
	nodes[1].Recover(func(s Stats) { st = s })
	sched.Run()
	if st.Err != "" || st.InDoubt != 1 || st.Unresolved != 1 || len(nodes[1].Unresolved()) != 1 {
		t.Fatalf("recovery = %v (%q), pending %v; want txn 5 left in doubt", st, st.Err, nodes[1].Unresolved())
	}
	if len(rec.Messages(trace.Bounce, "inquire")) != 1 {
		t.Fatalf("the inquiry across the cut did not bounce:\n%s", rec.Dump())
	}
	heal := sched.Now()
	net.Cut(heal)
	nodes[1].RetryInDoubt()
	sched.Run()
	if len(nodes[1].Unresolved()) != 0 {
		t.Fatalf("pending %v after the heal; want txn 5 committed", nodes[1].Unresolved())
	}
	if o, _ := eng.Outcome(5); o != proto.Commit {
		t.Fatalf("txn 5 durable outcome = %v, want commit", o)
	}
	if d := rec.Messages(trace.Deliver, "commit"); len(d) != 1 || d[0].At < heal+sim.Time(2*sim.DefaultT) {
		t.Fatalf("decision delivered %+v, want one, a round trip (2T) after the heal at %d", d, heal)
	}
	resolved := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.Note && ev.Site == 1 && ev.TID == 5 && strings.HasPrefix(ev.Detail, "in doubt resolved: commit from site 2")
	})
	if len(resolved) != 1 || resolved[0].At < heal {
		t.Fatalf("resolution notes %+v, want one at or after the heal at %d", resolved, heal)
	}
	asked := len(rec.Messages(trace.Send, "inquire"))
	nodes[1].RetryInDoubt()
	if got := len(rec.Messages(trace.Send, "inquire")); got != asked {
		t.Fatalf("asked again with nothing pending: %d inquiries sent, want %d", got, asked)
	}
}
