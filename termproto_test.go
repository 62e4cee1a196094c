package termproto_test

import (
	"fmt"
	"testing"

	"termproto"
	"termproto/internal/cluster"
	"termproto/internal/db/engine"
	"termproto/internal/experiments"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
)

// The facade is what the examples are written against; these tests
// exercise it the way the examples do, and reach the internal packages
// directly for what the facade leaves out.

func TestFacadeQuickstart(t *testing.T) {
	sb := termproto.NewSimBackend(termproto.SimOptions{RecordTrace: true})
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    4,
		Protocol: termproto.Termination(),
		Schedule: termproto.Schedule{termproto.PartitionAt(termproto.Time(2.5*float64(termproto.T)), 3, 4)},
		Backend:  sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(termproto.Txn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r.Consistent() {
		t.Fatal("inconsistent")
	}
	if len(r.Blocked()) != 0 {
		t.Fatalf("blocked: %v", r.Blocked())
	}
	if got := termproto.ClassifyTrace(sb, r.Master); got != "1" {
		t.Fatalf("case = %s, want 1", got)
	}
}

func TestFacadeProtocols(t *testing.T) {
	for _, name := range registry.Names() {
		p, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: p}, cluster.SimOptions{}, cluster.Txn{})
		if got := r.Sites[1].Outcome; got != proto.Commit {
			t.Errorf("%s failure-free: master = %v", name, got)
		}
	}
}

func TestFacadeVoters(t *testing.T) {
	r, _ := cluster.RunOne(cluster.Config{Sites: 3, Protocol: termproto.Termination(), Votes: proto.NoAt(2)},
		cluster.SimOptions{}, cluster.Txn{})
	if r.Sites[1].Outcome != proto.Abort {
		t.Fatal("NoAt voter ignored")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	a := termproto.Analyze(termproto.ThreePC(), 3)
	if !a.SatisfiesLemmas() {
		t.Fatal("3PC lemma verdict wrong through the facade")
	}
	bad := termproto.Analyze(termproto.TwoPC(), 3)
	if bad.SatisfiesLemmas() {
		t.Fatal("2PC n=3 should violate the lemmas")
	}
}

func TestFacadeEngine(t *testing.T) {
	store := &termproto.MemStore{}
	e := termproto.NewEngine("s1", store)
	e.PutInt("k", 40)
	engs := map[termproto.SiteID]*termproto.Engine{1: e}
	for i := 2; i <= 3; i++ {
		o := termproto.NewEngine(fmt.Sprintf("s%d", i), &termproto.MemStore{})
		o.PutInt("k", 40)
		engs[termproto.SiteID(i)] = o
	}
	c, err := termproto.Open(termproto.ClusterConfig{Sites: 3, Protocol: termproto.Termination(), Engines: engs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(termproto.Txn{Payload: termproto.EncodeOps([]termproto.Op{
		{Kind: termproto.OpAdd, Key: "k", Delta: 2},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r.Sites[1].Outcome != proto.Commit || e.GetInt("k") != 42 {
		t.Fatalf("engine integration: outcome=%v k=%d", r.Sites[1].Outcome, e.GetInt("k"))
	}

	// The engine's own recovery over the same store.
	rec, inDoubt, err := engine.Recover("s1", store)
	if err != nil || len(inDoubt) != 0 || rec.GetInt("k") != 42 {
		t.Fatalf("recovery: err=%v inDoubt=%v k=%d", err, inDoubt, rec.GetInt("k"))
	}
}

func TestFacadeIntCodec(t *testing.T) {
	if engine.DecodeInt(engine.EncodeInt(-7)) != -7 {
		t.Fatal("int codec")
	}
}

func TestFacadeExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	for _, tbl := range experiments.All(experiments.Config{Quick: true}) {
		if !tbl.Pass {
			t.Fatalf("experiment %s failed:\n%s", tbl.ID, tbl)
		}
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2500, 4, 5),
			termproto.HealAt(9000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SubmitBatch(make([]termproto.Txn, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Verify() {
		t.Errorf("violated through the facade: %s", v)
	}
	st := c.Stats()
	if st.Submitted != 10 || st.Committed+st.Aborted != 10 {
		t.Fatalf("stats: %v", st)
	}
}

// ExampleOpen demonstrates the Cluster API: ten concurrent transactions
// ride out a partition that rises and heals mid-traffic.
func ExampleOpen() {
	c, _ := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2500, 4, 5),
			termproto.HealAt(9000),
		},
	})
	defer c.Close()
	c.SubmitBatch(make([]termproto.Txn, 10))
	c.Wait()
	fmt.Println("terminated atomically:", len(c.Verify()) == 0)
	fmt.Println("blocked:", c.Stats().Blocked)
	// Output:
	// terminated atomically: true
	// blocked: 0
}
