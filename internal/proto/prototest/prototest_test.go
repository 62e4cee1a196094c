package prototest

import (
	"testing"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

func TestEnvShape(t *testing.T) {
	e := NewEnv(3, 5)
	if e.Self() != 3 || e.MasterID() != 1 {
		t.Fatalf("self=%d master=%d", e.Self(), e.MasterID())
	}
	if n := len(e.Sites()); n != 5 {
		t.Fatalf("sites = %d", n)
	}
	slaves := e.Slaves()
	if len(slaves) != 4 {
		t.Fatalf("slaves = %v", slaves)
	}
	for _, id := range slaves {
		if id == 1 {
			t.Fatal("master listed among slaves")
		}
	}
	if e.T() != sim.DefaultT {
		t.Fatalf("T = %d", e.T())
	}
	e.NowTime = 42
	if e.Now() != 42 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestSendRecording(t *testing.T) {
	e := NewEnv(1, 4)
	e.Send(2, proto.MsgPrepare, []byte("p"))
	e.SendAll(proto.MsgCommit, nil)
	if got := len(e.Sent); got != 4 {
		t.Fatalf("sent = %d, want 4", got)
	}
	if e.CountSent(proto.MsgCommit) != 3 || e.CountSent(proto.MsgPrepare) != 1 {
		t.Fatalf("counts: %v", e.SentKinds())
	}
	kinds := e.SentKinds()
	if kinds[0] != proto.MsgPrepare || kinds[1] != proto.MsgCommit {
		t.Fatalf("kinds = %v", kinds)
	}
	if e.Sent[0].From != 1 || e.Sent[0].To != 2 || string(e.Sent[0].Payload) != "p" {
		t.Fatalf("first send = %+v", e.Sent[0])
	}
	e.ClearSent()
	if len(e.Sent) != 0 {
		t.Fatal("ClearSent left messages")
	}
}

func TestTimerBookkeeping(t *testing.T) {
	e := NewEnv(2, 3)
	e.StopTimer() // inactive stop: not counted
	if e.TimerStops != 0 {
		t.Fatal("stop of inactive timer counted")
	}
	e.ResetTimer(2 * sim.DefaultT)
	if !e.TimerActive || e.TimerDur != 2*sim.DefaultT || e.TimerResets != 1 {
		t.Fatalf("after reset: %+v", e)
	}
	e.ResetTimer(5 * sim.DefaultT)
	if e.TimerResets != 2 || e.TimerDur != 5*sim.DefaultT {
		t.Fatalf("after second reset: %+v", e)
	}
	e.StopTimer()
	if e.TimerActive || e.TimerStops != 1 {
		t.Fatalf("after stop: %+v", e)
	}
}

func TestExecuteVote(t *testing.T) {
	e := NewEnv(2, 3)
	if !e.Execute(nil) {
		t.Fatal("default vote should be yes")
	}
	e.Vote = func(payload []byte) bool { return string(payload) == "ok" }
	if e.Execute([]byte("nope")) || !e.Execute([]byte("ok")) {
		t.Fatal("Vote hook not consulted")
	}
}

func TestDecideRecordsAndPanicsOnConflict(t *testing.T) {
	e := NewEnv(1, 2)
	e.Decide(proto.Commit)
	e.Decide(proto.Commit) // idempotent re-decide is allowed
	if e.Decision != proto.Commit || e.Decisions != 2 {
		t.Fatalf("decision=%v decisions=%d", e.Decision, e.Decisions)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting Decide did not panic")
		}
	}()
	e.Decide(proto.Abort)
}

func TestMessageBuilders(t *testing.T) {
	e := NewEnv(2, 4)
	m := e.Msg(1, proto.MsgPrepare)
	if m.From != 1 || m.To != 2 || m.Kind != proto.MsgPrepare || m.Undeliverable {
		t.Fatalf("Msg = %+v", m)
	}
	ud := e.UD(3, proto.MsgAck)
	if ud.From != 2 || ud.To != 3 || !ud.Undeliverable {
		t.Fatalf("UD = %+v", ud)
	}
}

func TestTracef(t *testing.T) {
	e := NewEnv(1, 2)
	e.Tracef("hello %d", 7)
	if len(e.Notes) != 1 || e.Notes[0] != "hello 7" {
		t.Fatalf("notes = %v", e.Notes)
	}
}

// The site runtime panics on a decision of None, and so does the fake.
func TestDecideNonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Decide(None) did not panic")
		}
	}()
	NewEnv(1, 2).Decide(proto.None)
}
