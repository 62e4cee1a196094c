package main

import (
	"bytes"
	"fmt"
	"sort"

	"termproto/internal/db/engine"
)

// splitAllowance caps, as a share of attempted, the split decisions a
// cut being posted or a host stall may explain before the run counts as
// incorrect anyway. See "partition onset is not atomic" in bench/README.md.
const splitAllowance = 0.01

// What was going on while a transaction that ended split was in flight.
const (
	unexplained = iota
	byStall     // the host froze: reported, and the run is measured again while there is time
	byOnset     // a cut was being posted node by node: reported
)

// verdict is the outcome of the correctness check.
type verdict struct {
	problems  []string // each one makes the run incorrect
	split     []uint64 // transactions some site committed and another aborted
	byStall   int      // of those, how many a host stall explains: not a problem, but the caller should measure again
	byOnset   int      // and how many a cut being posted explains
	undecided int      // transactions some participant never decided
}

func (v *verdict) failf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// siteView is what one site reports once traffic has settled.
type siteView struct {
	id       int
	outcomes map[uint64]string // tid -> "commit" | "abort" | "none"
	data     map[string][]byte
	unstable int
	inDoubt  int
}

func (c *cluster) view(id int) (siteView, error) {
	v := siteView{id: id, outcomes: make(map[uint64]string)}
	txns, err := c.clients[id].Txns()
	if err != nil {
		return v, fmt.Errorf("site %d /txns: %w", id, err)
	}
	for _, t := range txns {
		v.outcomes[t.TID] = t.Outcome
	}
	data, unstable, err := c.clients[id].Snapshot()
	if err != nil {
		return v, fmt.Errorf("site %d /snapshot: %w", id, err)
	}
	v.data, v.unstable = data, len(unstable)
	doubt, err := c.clients[id].InDoubt()
	if err != nil {
		return v, fmt.Errorf("site %d /indoubt: %w", id, err)
	}
	v.inDoubt = len(doubt.InDoubt)
	return v, nil
}

// replay applies, in any order (puts happen once per key and adds
// commute), every ledger transaction the site says it committed, and
// returns the balances the site should therefore hold.
func replay(ledger map[uint64][]engine.Op, outcomes map[uint64]string) map[string]int64 {
	want := make(map[string]int64, numAccounts)
	for tid, ops := range ledger {
		if outcomes[tid] != "commit" {
			continue
		}
		for _, op := range ops {
			switch op.Kind {
			case engine.OpPut:
				want[op.Key] += engine.DecodeInt(op.Value)
			case engine.OpAdd:
				want[op.Key] += op.Delta
			}
		}
	}
	return want
}

// judge checks the settled views. Always: every site's balances are
// exactly what the transactions it committed produce, their sum is the
// seeded total, and no participant is left undecided. Sites must also
// agree on every outcome and hold byte-identical snapshots. A
// disagreement that explain accounts for is counted instead of failed: a
// host stall put the transaction outside the delay bound the protocol
// assumes, so the caller measures again if it can; a cut posted node by
// node is the harness's doing. Together they are tolerated up to
// splitAllowance of attempted. The keys such a transaction wrote are the
// only ones left out of the snapshot comparison.
func judge(views []siteView, ledger map[uint64][]engine.Op, attempted int, explain func(tid uint64) int) verdict {
	var v verdict
	for _, sv := range views {
		want := replay(ledger, sv.outcomes)
		var sum int64
		wrong := 0
		for key, val := range sv.data {
			if engine.IsMetaKey(key) {
				continue
			}
			got := engine.DecodeInt(val)
			sum += got
			if got != want[key] {
				wrong++
			}
		}
		if len(sv.data) != numAccounts {
			v.failf("site %d holds %d keys, want %d", sv.id, len(sv.data), numAccounts)
		}
		if wrong > 0 {
			v.failf("site %d: %d balances differ from the transactions it committed", sv.id, wrong)
		}
		if sum != numAccounts*seedBalance {
			v.failf("site %d: balances sum to %d, want %d", sv.id, sum, numAccounts*seedBalance)
		}
		if sv.inDoubt > 0 || sv.unstable > 0 {
			v.failf("site %d: %d in-doubt transactions, %d unstable keys after settle", sv.id, sv.inDoubt, sv.unstable)
		}
	}

	for tid := range ledger {
		commit, abort, none := 0, 0, 0
		for _, sv := range views {
			switch sv.outcomes[tid] {
			case "commit":
				commit++
			case "abort":
				abort++
			case "none":
				none++ // it took part and never decided
			}
		}
		if commit > 0 && abort > 0 {
			v.split = append(v.split, tid)
			switch explain(tid) {
			case byStall:
				v.byStall++
			case byOnset:
				v.byOnset++
			}
		}
		if none > 0 {
			v.undecided++
		}
	}
	sort.Slice(v.split, func(i, j int) bool { return v.split[i] < v.split[j] })
	if v.undecided > 0 {
		v.failf("%d transactions left undecided at some participant", v.undecided)
	}
	if n := len(v.split) - v.byStall - v.byOnset; n > 0 {
		v.failf("%d of the transactions decided differently on different sites have no host stall or cut to explain them: %v",
			n, v.split)
	}
	if allowed := int(splitAllowance * float64(attempted)); v.byOnset+v.byStall > allowed {
		v.failf("%d transactions split across a cut being posted or a host stall, more than the %d allowed: %v",
			v.byOnset+v.byStall, allowed, v.split)
	}
	splitKeys := make(map[string]bool)
	for _, tid := range v.split {
		for _, op := range ledger[tid] {
			splitKeys[op.Key] = true
		}
	}
	for _, sv := range views[1:] {
		differ := len(sv.data) != len(views[0].data)
		for key, val := range views[0].data {
			if !splitKeys[key] && !bytes.Equal(val, sv.data[key]) {
				differ = true
			}
		}
		if differ {
			v.failf("site %d snapshot differs from site %d beyond the keys of split transactions", sv.id, views[0].id)
		}
	}
	return v
}
