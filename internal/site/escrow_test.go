package site

import (
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/obs"
	"termproto/internal/proto"
)

// transfer moves amount from one account to another: two adds.
func transfer(from, to string, amount int64) []byte {
	return engine.EncodeOps([]engine.Op{
		{Kind: engine.OpAdd, Key: from, Delta: -amount},
		{Kind: engine.OpAdd, Key: to, Delta: +amount},
	})
}

// Two masters send transfers out of one account within one hop of each
// other. Adds commute and the balance covers both debits, so the second
// to reach site 1 prepares beside the first there — the older no longer
// wounds the younger, nor the younger waits behind the older — and both
// commit everywhere.
func TestEscrowConcurrentTransfersBothCommit(t *testing.T) {
	for _, olderFirst := range []bool{false, true} {
		h := newHandSites(t, 4, core.Protocol{TransientFix: true})
		for _, e := range h.engs {
			for _, acct := range []string{"a", "b", "c"} {
				e.PutInt(acct, 100)
			}
		}
		// Txn 2 (younger) from site 1 over {1,2,3}; txn 1 (older) from site
		// 4 over {1,4}. Both debit a at site 1.
		younger := func() {
			h.nodes[1].Submit(Spec{TID: 2, Master: 1, Sites: []proto.SiteID{1, 2, 3}, Payload: transfer("a", "b", 30)})
		}
		h.nodes[4].Submit(Spec{TID: 1, Master: 4, Sites: []proto.SiteID{1, 4}, Payload: transfer("a", "c", 50)})
		if olderFirst {
			h.pass(1, proto.MsgXact, 1)
			younger()
		} else {
			younger()
			h.pass(1, proto.MsgXact, 1)
		}
		h.settle()
		for tid, sites := range map[proto.TxnID][]proto.SiteID{1: {1, 4}, 2: {1, 2, 3}} {
			for _, id := range sites {
				if o := h.outcome(id, tid); o != proto.Commit {
					t.Errorf("olderFirst=%v: site %d decided %v on txn %d, want commit", olderFirst, id, o, tid)
				}
			}
		}
		if a, b, c := h.engs[1].GetInt("a"), h.engs[1].GetInt("b"), h.engs[1].GetInt("c"); a != 20 || b != 130 || c != 150 {
			t.Errorf("olderFirst=%v: site 1 holds a=%d b=%d c=%d, want 20 130 150", olderFirst, a, b, c)
		}
		snap := h.regs[1].Snapshot()
		if w, f, p := snap.Total(obs.MLockWounds), snap.Total(obs.MLockFailures), snap.Total(obs.MLockWaits); w+f+p != 0 {
			t.Errorf("olderFirst=%v: site 1 counted %d wounds, %d lock failures, %d waits; want none", olderFirst, w, f, p)
		}
	}
}
