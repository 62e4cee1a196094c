package cluster

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
	"termproto/internal/site"
)

// fakeSites is a scripted wallSites: it records what the driver asks of
// its sites and answers status from a script, so the driver's rules can be
// tested at T = 1 ms without a protocol round.
type fakeSites struct {
	mu         sync.Mutex
	submitted  []site.Spec
	partitions [][]proto.SiteID // every partition call's g2; empty = heal
	restarts   int
	statuses   int // status calls so far
	// answer scripts status; nil decides commit everywhere at once.
	answer func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error)
	// restartErr makes restart fail.
	restartErr string
}

func (f *fakeSites) boot(Config) error { return nil }
func (f *fakeSites) close() error      { return nil }
func (f *fakeSites) stats() NetStats   { return NetStats{} }

func (f *fakeSites) submit(spec site.Spec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.submitted = append(f.submitted, spec)
	return nil
}

func (f *fakeSites) status(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
	f.mu.Lock()
	f.statuses++
	answer := f.answer
	f.mu.Unlock()
	if answer == nil {
		return decided(tid, proto.Commit), true, nil
	}
	return answer(id, tid)
}

func (f *fakeSites) partition(g2 []proto.SiteID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitions = append(f.partitions, g2)
}

func (f *fakeSites) crash(proto.SiteID) {}

func (f *fakeSites) restart(id proto.SiteID, at sim.Time) (*RecoveryReport, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restarts++
	if f.restartErr != "" {
		return &RecoveryReport{Site: id, At: at, Stats: site.Stats{Err: f.restartErr}}, false
	}
	return nil, true
}

func (f *fakeSites) statusCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statuses
}

func decided(tid proto.TxnID, o proto.Outcome) site.Status {
	return site.Status{TID: tid, State: "c", Outcome: o, DecidedAt: sim.Time(time.Now().UnixMicro())}
}

func undecided(tid proto.TxnID) site.Status { return site.Status{TID: tid, State: "w"} }

// fakeDriver opens a driver over f at T = 1 ms.
func fakeDriver(t *testing.T, f *fakeSites, sched ...Event) *wallDriver {
	t.Helper()
	d := newWallDriver("fake", time.Millisecond, f)
	if err := d.Open(Config{Sites: 3, Schedule: sched}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return &d
}

// submitTo submits a transaction over sites 1..3 and returns its result.
func submitTo(t *testing.T, d *wallDriver, tid proto.TxnID, master proto.SiteID, at sim.Time) *TxnResult {
	t.Helper()
	txn := Txn{ID: tid, Master: master, Sites: allSites(3), At: at}
	res := &TxnResult{TID: tid, Master: master, Sites: make(map[proto.SiteID]*SiteOutcome)}
	for _, id := range txn.Sites {
		res.Sites[id] = &SiteOutcome{FinalState: "q"}
	}
	if err := d.Submit(txn, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// A transient partition overtaken by a later partition must not heal it.
func TestWallDriverStaleAutoHealDropped(t *testing.T) {
	f := &fakeSites{}
	d := fakeDriver(t, f, TransientPartitionAt(5_000, 40_000, 3), PartitionAt(20_000, 2))
	time.Sleep(d.wall(60_000))
	f.mu.Lock()
	defer f.mu.Unlock()
	want := [][]proto.SiteID{{3}, {2}}
	if !reflect.DeepEqual(f.partitions, want) {
		t.Fatalf("partition calls = %v, want %v (no heal)", f.partitions, want)
	}
}

// The same transient partition left alone heals itself, once.
func TestWallDriverAutoHeal(t *testing.T) {
	f := &fakeSites{}
	d := fakeDriver(t, f, TransientPartitionAt(5_000, 20_000, 3))
	time.Sleep(d.wall(40_000))
	f.mu.Lock()
	defer f.mu.Unlock()
	if want := [][]proto.SiteID{{3}, nil}; !reflect.DeepEqual(f.partitions, want) {
		t.Fatalf("partition calls = %v, want %v", f.partitions, want)
	}
}

// A delayed submission whose master died before it fired is a recorded
// no-op: nothing is submitted, nobody is asked, only the master is crashed.
func TestWallDriverDeadMasterIsNoop(t *testing.T) {
	f := &fakeSites{}
	d := fakeDriver(t, f, CrashAt(2_000, 1))
	res := submitTo(t, d, 1, 1, 10_000)
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(f.submitted) != 0 || f.statusCalls() != 0 {
		t.Fatalf("submitted %v, %d status calls; want none", f.submitted, f.statusCalls())
	}
	for id, so := range res.Sites {
		if so.Crashed != (id == 1) || so.Started || so.Outcome != proto.None {
			t.Errorf("site %d: %+v", id, so)
		}
	}
	if len(d.txns) != 0 {
		t.Errorf("no-op still on the poll list")
	}
}

// The roster is the participant set minus the sites down at fire; what a
// crashing site was seen to decide stands, what it was invited to and not
// seen to decide is crashed in the state last polled.
func TestWallDriverRosterAndCrashBookkeeping(t *testing.T) {
	f := &fakeSites{}
	d := fakeDriver(t, f)
	f.answer = func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
		if id == 3 && tid == 2 {
			return undecided(tid), true, nil
		}
		return decided(tid, proto.Commit), true, nil
	}
	r1 := submitTo(t, d, 1, 1, 0)
	r2 := submitTo(t, d, 2, 1, 0)
	d.settled() // site 3 is seen deciding txn 1 and holding txn 2 in w
	d.Inject(CrashAt(0, 3))
	r3 := submitTo(t, d, 3, 1, 0)
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.submitted[2].Sites; !reflect.DeepEqual(got, []proto.SiteID{1, 2}) {
		t.Errorf("txn 3 roster = %v, want [1 2]", got)
	}
	if so := r1.Sites[3]; so.Outcome != proto.Commit || so.Crashed {
		t.Errorf("decided before the crash: %+v", so)
	}
	if so := r2.Sites[3]; so.Outcome != proto.None || !so.Crashed || !so.Started || so.FinalState != "w" {
		t.Errorf("died hosting it undecided: %+v", so)
	}
	if so := r3.Sites[3]; !so.Crashed || so.Started {
		t.Errorf("down at fire: %+v", so)
	}
	if r3.Outcome() != proto.Commit || !r3.Decided() {
		t.Errorf("survivors: outcome=%v blocked=%v", r3.Outcome(), r3.Blocked())
	}
}

// A site crashed while a Wait runs and then restarted is what its fresh
// incarnation answers: in doubt, it is blocked and named in the
// UndecidedError; decided, it ends with that outcome and is not crashed.
func TestWallDriverRestartedSiteAnswers(t *testing.T) {
	for _, after := range []site.Status{{TID: 1, State: "q"}, decided(1, proto.Commit)} {
		f := &fakeSites{}
		f.answer = func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
			f.mu.Lock()
			restarted := f.restarts > 0
			f.mu.Unlock()
			switch {
			case id != 3:
				return decided(tid, proto.Commit), true, nil
			case restarted:
				return after, true, nil
			}
			return undecided(tid), true, nil
		}
		d := fakeDriver(t, f, CrashAt(5_000, 3))
		res := submitTo(t, d, 1, 1, 0)
		if err := d.Wait(); err != nil { // returns once site 3 is down
			t.Fatal(err)
		}
		if so := res.Sites[3]; !so.Crashed || so.FinalState != "w" {
			t.Fatalf("site 3 while down: %+v", so)
		}
		d.Inject(RecoverAt(0, 3))
		err := d.Wait()
		so := res.Sites[3]
		if after.Outcome == proto.None {
			var undecidedErr *UndecidedError
			if !errors.As(err, &undecidedErr) || !reflect.DeepEqual(undecidedErr.TIDs, []proto.TxnID{1}) {
				t.Fatalf("restart in doubt: Wait = %v, want UndecidedError for txn 1", err)
			}
			if got := res.Blocked(); !reflect.DeepEqual(got, []proto.SiteID{3}) || so.FinalState != "q" {
				t.Errorf("restart in doubt: blocked at %v, site 3 %+v", got, so)
			}
			continue
		}
		if err != nil || so.Outcome != proto.Commit || so.Crashed {
			t.Errorf("restart decided: Wait = %v, site 3 %+v", err, so)
		}
	}
}

// A site that never started turns final only after the 10T grace.
func TestWallDriverGraceForSilentSite(t *testing.T) {
	f := &fakeSites{answer: func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
		if id == 3 {
			return site.Status{}, false, nil
		}
		return decided(tid, proto.Abort), true, nil
	}}
	d := fakeDriver(t, f)
	res := submitTo(t, d, 1, 1, 0)
	if d.settled() {
		t.Fatal("settled inside the grace")
	}
	start := time.Now()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 9*time.Millisecond || waited > 250*time.Millisecond {
		t.Errorf("Wait took %s, want the 10T grace", waited)
	}
	if so := res.Sites[3]; so.Started || so.Crashed || so.Outcome != proto.None {
		t.Errorf("silent site: %+v", so)
	}
	if res.Outcome() != proto.Abort || len(d.txns) != 0 {
		t.Errorf("outcome %v, %d txns left on the list", res.Outcome(), len(d.txns))
	}
}

// A status error is transient: the transaction stays on the poll list.
func TestWallDriverStatusErrorKeepsPolling(t *testing.T) {
	failing := true // site 2 is unreachable
	f := &fakeSites{answer: func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
		if id == 2 && failing {
			return site.Status{}, false, errors.New("connection refused")
		}
		return decided(tid, proto.Commit), true, nil
	}}
	d := fakeDriver(t, f)
	res := submitTo(t, d, 1, 1, 0)
	if d.settled() {
		t.Fatal("settled over a status error")
	}
	d.sync()
	if len(d.txns) != 1 || res.Sites[2].Outcome != proto.None || res.Sites[1].Outcome != proto.Commit {
		t.Fatalf("after the error: %d on the list, sites %+v %+v", len(d.txns), res.Sites[1], res.Sites[2])
	}
	before := f.statusCalls()
	failing = false
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if f.statusCalls() != before+1 { // sites 1 and 3 were seen decided: only 2 is asked again
		t.Errorf("%d status calls after the error cleared, want 1", f.statusCalls()-before)
	}
	if len(d.txns) != 0 || res.Sites[2].Outcome != proto.Commit {
		t.Fatalf("after the retry: %d on the list, site 2 %+v", len(d.txns), res.Sites[2])
	}
}

// A recovery for a site that is not down does nothing; a failed restart
// leaves the site down and records why.
func TestWallDriverRestart(t *testing.T) {
	f := &fakeSites{restartErr: "no such binary"}
	d := fakeDriver(t, f)
	d.Inject(RecoverAt(0, 2))
	if f.restarts != 0 || len(d.Recoveries()) != 0 {
		t.Fatalf("recovering a live site: %d restarts, %d reports", f.restarts, len(d.Recoveries()))
	}
	d.Inject(CrashAt(0, 2))
	d.Inject(RecoverAt(0, 2))
	recs := d.Recoveries()
	if f.restarts != 1 || len(recs) != 1 || recs[0].Site != 2 || recs[0].Err == "" {
		t.Fatalf("failed restart: %d restarts, reports %v", f.restarts, recs)
	}
	res := submitTo(t, d, 1, 1, 0)
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if !res.Sites[2].Crashed || !reflect.DeepEqual(f.submitted[0].Sites, []proto.SiteID{1, 3}) {
		t.Errorf("site 2 should still be down: %+v, roster %v", res.Sites[2], f.submitted[0].Sites)
	}
	f.restartErr = ""
	d.Inject(RecoverAt(0, 2))
	if len(d.Recoveries()) != 1 || d.down[2] {
		t.Errorf("second restart: %d reports, down=%v", len(d.Recoveries()), d.down[2])
	}
}

// Past the deadline Wait names exactly the transactions stuck at a live
// site that started them, with results synced.
func TestWallDriverDeadlineIsLoud(t *testing.T) {
	f := &fakeSites{answer: func(id proto.SiteID, tid proto.TxnID) (site.Status, bool, error) {
		switch {
		case tid == 2 && id == 2:
			return undecided(tid), true, nil // blocked
		case tid == 3 && id != 1:
			return site.Status{}, false, nil // never invited anyone
		}
		return decided(tid, proto.Abort), true, nil
	}}
	d := fakeDriver(t, f)
	submitTo(t, d, 1, 1, 0)
	r2 := submitTo(t, d, 2, 1, 0)
	submitTo(t, d, 3, 1, 0)
	err := d.Wait()
	var undecidedErr *UndecidedError
	if !errors.As(err, &undecidedErr) || !reflect.DeepEqual(undecidedErr.TIDs, []proto.TxnID{2}) {
		t.Fatalf("Wait = %v, want UndecidedError for txn 2", err)
	}
	if got := r2.Blocked(); !reflect.DeepEqual(got, []proto.SiteID{2}) || r2.Outcome() != proto.Abort {
		t.Errorf("txn 2 blocked at %v with outcome %v", got, r2.Outcome())
	}
	if len(d.txns) != 1 {
		t.Errorf("%d transactions left on the list, want the stuck one", len(d.txns))
	}
}

// Settled transactions leave the poll list: a Wait's status calls are
// proportional to what was submitted since the last one.
func TestWallDriverPollsOnlyTheUnsettled(t *testing.T) {
	f := &fakeSites{}
	d := fakeDriver(t, f)
	for tid := proto.TxnID(1); tid <= 200; tid++ {
		submitTo(t, d, tid, 1, 0)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.statusCalls(); got != 200*3 {
		t.Fatalf("first Wait: %d status calls, want 600", got)
	}
	for tid := proto.TxnID(201); tid <= 210; tid++ {
		submitTo(t, d, tid, 1, 0)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.statusCalls() - 600; got != 10*3 {
		t.Fatalf("second Wait: %d status calls, want 30", got)
	}
}
