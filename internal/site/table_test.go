package site

import (
	"slices"
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// fixture is n tables stepped by one scheduler over one simulated network
// (every hop takes T) — the simulator's wiring, minus the cluster.
type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	rec    *trace.Recorder
	tables map[proto.SiteID]*Table
}

func newFixture(n int, engs map[proto.SiteID]*engine.Engine) *fixture {
	f := &fixture{sched: sim.NewScheduler(), rec: &trace.Recorder{}, tables: map[proto.SiteID]*Table{}}
	f.net = simnet.New(simnet.Config{Sched: f.sched, Trace: f.rec})
	for _, id := range roster(n) {
		f.tables[id] = NewTable(Site{
			ID: id, Clock: SchedClock{Sched: f.sched, Bound: sim.DefaultT}, Transport: f.net,
			Engine: engs[id], Trace: f.rec.Append,
		}, core.Protocol{TransientFix: true})
		f.net.Register(id, f.tables[id])
	}
	return f
}

func (f *fixture) sent() uint64 {
	sent, _, _, _ := f.net.Stats()
	return sent
}

// events returns the recorded events of one kind.
func (f *fixture) events(kind trace.EventKind) []trace.Event {
	return f.rec.Filter(func(e trace.Event) bool { return e.Kind == kind })
}

// The master is spawned by Submit and nowhere else; submitting the same
// TID again is dropped.
func TestTableSubmitSpawnsMasterOnce(t *testing.T) {
	f := newFixture(3, nil)
	spec := Spec{TID: 1, Master: 1, Sites: roster(3)}
	f.tables[1].Submit(spec)
	if n := len(f.tables[1].Txns()); n != 1 {
		t.Fatalf("master hosts %d automata after Submit, want 1", n)
	}
	sent := f.sent()
	if sent != 2 {
		t.Fatalf("master sent %d messages on Submit, want its 2 xacts", sent)
	}
	f.tables[1].Submit(spec)
	if f.sent() != sent || len(f.tables[1].Txns()) != 1 {
		t.Fatalf("duplicate Submit acted: %d sends, %d automata", f.sent(), len(f.tables[1].Txns()))
	}
	for _, id := range []proto.SiteID{2, 3} {
		if _, ok := f.tables[id].Txn(1); ok {
			t.Fatalf("site %d spawned before its xact arrived", id)
		}
	}
	f.sched.Run()
	for id, tb := range f.tables {
		if st, ok := tb.Txn(1); !ok || st.Outcome != proto.Commit {
			t.Fatalf("site %d = %+v/%v, want commit", id, st, ok)
		}
	}
}

// A slave is spawned by the first MsgXact envelope, with the roster and the
// scripted no-votes the master put in it.
func TestTableSlaveFromEnvelope(t *testing.T) {
	f := newFixture(3, nil)
	f.tables[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(3), NoVotes: []proto.SiteID{3}})
	f.sched.Run()
	for _, id := range []proto.SiteID{2, 3} {
		st, ok := f.tables[id].Txn(1)
		if !ok {
			t.Fatalf("site %d never spawned its slave", id)
		}
		if st.Master != 1 || !slices.Equal(st.Sites, roster(3)) || st.StartedAt != sim.Time(sim.DefaultT) {
			t.Fatalf("site %d slave = %+v, want master 1, roster %v, started at T", id, st, roster(3))
		}
	}
	// Site 3 read its scripted no off the envelope: everybody aborts.
	for id, tb := range f.tables {
		if st, _ := tb.Txn(1); st.Outcome != proto.Abort {
			t.Fatalf("site %d = %v, want abort", id, st.Outcome)
		}
	}
}

// A site learns of a transaction only from its xact: any other message for
// a transaction it never learned of — delivered or returned — is dropped,
// spawning nothing and sending nothing.
func TestTableDropsTrafficForUnknownTxn(t *testing.T) {
	f := newFixture(2, nil)
	for _, kind := range []proto.Kind{proto.MsgAbort, proto.MsgStateReq, proto.MsgSolicit} {
		f.tables[2].Deliver(proto.Msg{TID: 9, From: 1, To: 2, Kind: kind})
		f.tables[2].Undeliverable(proto.Msg{TID: 9, From: 2, To: 1, Kind: kind, Undeliverable: true})
	}
	f.sched.Run()
	if _, ok := f.tables[2].Txn(9); ok || f.sent() != 0 {
		t.Fatalf("unknown-txn traffic acted: status %v, %d sends", ok, f.sent())
	}
}

// A malformed envelope is one note in the trace and nothing else.
func TestTableMalformedEnvelope(t *testing.T) {
	f := newFixture(2, nil)
	f.tables[2].Deliver(proto.Msg{TID: 4, From: 1, To: 2, Kind: proto.MsgXact, Payload: []byte{0, 0, 0, 1, 0xff}})
	f.sched.Run()
	if notes := f.events(trace.Note); len(notes) != 1 || notes[0].Site != 2 || notes[0].TID != 4 {
		t.Fatalf("notes = %+v, want one for txn 4 at site 2", notes)
	}
	if _, ok := f.tables[2].Txn(4); ok || f.sent() != 0 {
		t.Fatalf("malformed envelope acted: status %v, %d sends", ok, f.sent())
	}
}

// A recovery inquiry is answered from the database's durable decision —
// without spawning anything — and is silence where there is no decision or
// no database.
func TestTableInquiryFromDurableState(t *testing.T) {
	eng := engine.New("s2", &wal.MemStore{})
	eng.Commit(7)
	eng.Abort(8)
	f := newFixture(3, map[proto.SiteID]*engine.Engine{2: eng})
	for _, tid := range []proto.TxnID{7, 8, 99} {
		f.tables[2].Deliver(proto.Msg{TID: tid, From: 1, To: 2, Kind: proto.MsgInquire})
	}
	f.tables[3].Deliver(proto.Msg{TID: 7, From: 1, To: 3, Kind: proto.MsgInquire})
	f.sched.Run()
	var answers []string
	for _, ev := range f.events(trace.Send) {
		if ev.From != 2 || ev.To != 1 {
			t.Fatalf("unexpected send %+v", ev)
		}
		answers = append(answers, ev.MsgKind)
	}
	want := []string{proto.MsgCommit.String(), proto.MsgAbort.String()}
	if !slices.Equal(answers, want) {
		t.Fatalf("answers = %v, want %v", answers, want)
	}
	if len(f.tables[2].Txns())+len(f.tables[3].Txns()) != 0 {
		t.Fatal("an inquiry spawned an automaton")
	}
}

// Close silences the armed timers; the view stays readable.
func TestTableCloseSilencesTimers(t *testing.T) {
	run := func(closeMaster bool) (*fixture, Status) {
		f := newFixture(2, nil)
		f.net.CrashAt(2, 0) // the xact is lost: the master waits on its timer
		f.tables[1].Submit(Spec{TID: 1, Master: 1, Sites: roster(2)})
		if closeMaster {
			f.tables[1].Close()
		}
		f.sched.Run()
		st, ok := f.tables[1].Txn(1)
		if !ok {
			t.Fatal("master's view unreadable")
		}
		return f, st
	}
	// Left open, the master times out and aborts.
	if f, st := run(false); len(f.events(trace.TimerFire)) == 0 || st.Outcome != proto.Abort {
		t.Fatalf("open master: %d timer fires, outcome %v", len(f.events(trace.TimerFire)), st.Outcome)
	}
	f, st := run(true)
	if fires := f.events(trace.TimerFire); len(fires) != 0 || st.Outcome != proto.None {
		t.Fatalf("closed master: timer fires %+v, outcome %v", fires, st.Outcome)
	}
	if len(f.tables[1].Txns()) != 1 {
		t.Fatal("closed table's view lost")
	}
}
