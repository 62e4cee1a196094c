package main

import (
	"fmt"
	"path/filepath"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/db/lock"
	"termproto/internal/db/wal"
	"termproto/internal/netnode"
	"termproto/internal/proto"
)

// The layers below the site loop are timed by calling their public
// functions directly, in this process, on the same kind of store the
// daemons use. Each loop is short: the numbers place a layer's cost
// inside a stage, they are not throughput benchmarks.
const (
	microDiskOps = 200   // operations that each end in an fsync
	microCPUOps  = 20000 // operations that never leave the CPU
)

// timeEach runs op n times and returns the per-call durations in
// microseconds.
func timeEach(n int, op func(i int)) *sample {
	s := &sample{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		op(i)
		s.add(float64(time.Since(t0).Nanoseconds()) / 1000)
	}
	return s
}

// timeLoop runs op n times and returns the mean nanoseconds per call.
func timeLoop(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

var sinkMsg proto.Msg // keeps the codec loop's result alive

// microLayers measures the wire codec, the WAL, the engine and the lock
// table in-process, with files under dir, on the workload's own
// transaction shape.
func microLayers(dir string, shape arrival, m map[string]float64) error {
	ops := shape.ops()
	payload := engine.EncodeOps(ops)
	sites := make([]proto.SiteID, len(roster))
	for i, id := range roster {
		sites[i] = proto.SiteID(id)
	}

	// wire: the xact frame, the only one that carries a payload.
	frame := proto.Msg{
		TID: 1, From: 1, To: 2, Kind: proto.MsgXact,
		Payload: netnode.EncodeXact(netnode.XactEnvelope{Master: 1, Sites: sites, Body: payload}),
	}
	var buf []byte
	var codecErr error
	m["wire.codec_ns_per_msg"] = timeLoop(microCPUOps, func(int) {
		buf = netnode.AppendMsg(buf[:0], frame)
		if sinkMsg, codecErr = netnode.DecodeMsg(buf); codecErr != nil {
			panic(codecErr) // our own frame failing to decode is a bug
		}
	})

	// wal: what a slave forces before voting yes, and the decision record.
	walStore, err := wal.OpenFile(filepath.Join(dir, "micro-wal.log"))
	if err != nil {
		return err
	}
	defer walStore.Close()
	log := wal.NewWith(walStore, wal.GroupCommitDefaults())
	var walErr error
	keep := func(err error) {
		if err != nil && walErr == nil {
			walErr = err
		}
	}
	m["wal.append_prepare_us_p50"] = timeEach(microDiskOps, func(i int) {
		tid := uint64(i + 1)
		keep(log.AppendBatch([]wal.Record{
			{Type: wal.RecBegin, TID: tid},
			{Type: wal.RecUpdate, TID: tid, Key: []byte(ops[0].Key), Value: engine.EncodeInt(seedBalance - 1)},
			{Type: wal.RecUpdate, TID: tid, Key: []byte(ops[1].Key), Value: engine.EncodeInt(seedBalance + 1)},
			{Type: wal.RecPrepared, TID: tid},
		}))
	}).quantile(0.5)
	m["wal.append_decision_us_p50"] = timeEach(microDiskOps, func(i int) {
		keep(log.Append(wal.Record{Type: wal.RecCommit, TID: uint64(i + 1)}))
	}).quantile(0.5)
	if walErr != nil {
		return fmt.Errorf("micro wal: %w", walErr)
	}

	// engine: execute (locks, staging, prepare fragment) and commit
	// (decision record, apply, release), on a file and in memory.
	engStore, err := wal.OpenFile(filepath.Join(dir, "micro-engine.log"))
	if err != nil {
		return err
	}
	defer engStore.Close()
	onFile := engine.NewWith("micro-file", engStore, engine.Options{WAL: wal.GroupCommitDefaults()})
	inMem := engine.NewWith("micro-mem", &wal.MemStore{}, engine.Options{})
	for _, e := range []*engine.Engine{onFile, inMem} {
		for _, op := range ops {
			e.PutInt(op.Key, seedBalance)
		}
	}
	votedNo := 0
	run := func(e *engine.Engine, n int) (exec, commit *sample) {
		exec, commit = &sample{}, &sample{}
		for i := 0; i < n; i++ {
			tid := proto.TxnID(i + 1)
			t0 := time.Now()
			if !e.ExecuteAt(tid, payload, sites) {
				votedNo++
			}
			t1 := time.Now()
			e.Commit(tid)
			t2 := time.Now()
			exec.add(float64(t1.Sub(t0).Nanoseconds()) / 1000)
			commit.add(float64(t2.Sub(t1).Nanoseconds()) / 1000)
		}
		return exec, commit
	}
	exec, commit := run(onFile, microDiskOps)
	m["engine.execute_us_p50"] = exec.quantile(0.5)
	m["engine.commit_us_p50"] = commit.quantile(0.5)
	execMem, _ := run(inMem, microCPUOps/10)
	m["engine.execute_mem_us_p50"] = execMem.quantile(0.5)
	if votedNo > 0 {
		return fmt.Errorf("micro engine: %d uncontended executes voted no", votedNo)
	}

	// lock: one transfer's two exclusive locks, taken and released.
	locks := lock.New()
	m["lock.acquire_release_ns"] = timeLoop(microCPUOps, func(i int) {
		tid := uint64(i + 1)
		locks.TryAcquire(tid, ops[0].Key, lock.Exclusive)
		locks.TryAcquire(tid, ops[1].Key, lock.Exclusive)
		locks.Release(tid)
	})
	return nil
}
