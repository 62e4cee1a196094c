package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/netnode"
	"termproto/internal/netnode/harness"
	"termproto/internal/proto"
)

const (
	seedTxns      = 16
	seedOpsPerTxn = numAccounts / seedTxns
	traceFile     = "trace.jsonl"
)

// cluster is one booted localnet plus what the generator knows about it:
// every transaction it ever submitted (the ledger the correctness check
// replays) and the daemons' process ids.
type cluster struct {
	net     *harness.Localnet
	dir     string
	clients map[int]*netnode.Client
	pids    []int
	nextTID uint64
	ledger  map[uint64][]engine.Op
}

var roster = []int{1, 2, 3}

// setupTimes splits set-up into its phases, in seconds.
type setupTimes struct {
	spawn, seed, warm float64
}

// boot spawns the daemons and waits until every one is healthy and every
// protocol link has carried a committed transaction.
func boot(bin, dir string, seed int64, traced bool) (*cluster, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := harness.Options{
		N: numSites, ProtoName: protoName, T: delayT,
		Dir: dir, BinPath: bin, Seed: seed,
	}
	if traced {
		opts.ExtraArgs = []string{"-trace-out", traceFile}
	}
	net, err := harness.Start(opts)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		net: net, dir: dir,
		clients: make(map[int]*netnode.Client, numSites),
		nextTID: 1,
		ledger:  make(map[uint64][]engine.Op),
	}
	for _, id := range roster {
		c.clients[id] = net.Client(proto.SiteID(id))
	}
	if c.pids, err = childPIDs("termnode"); err != nil || len(c.pids) != numSites {
		net.Stop()
		return nil, fmt.Errorf("found daemon pids %v, want %d (%v)", c.pids, numSites, err)
	}
	if err := c.prime(); err != nil {
		net.Stop()
		return nil, err
	}
	return c, nil
}

// submit registers ops in the ledger and starts them as one transaction
// at master.
func (c *cluster) submit(master int, ops []engine.Op) (uint64, error) {
	tid := c.nextTID
	c.nextTID++
	c.ledger[tid] = ops
	var payload []byte
	if len(ops) > 0 {
		payload = engine.EncodeOps(ops)
	}
	return tid, c.clients[master].Submit(netnode.SubmitReq{
		TID: tid, Master: master, Sites: roster, Payload: payload,
	})
}

// await polls the master until tid is decided and returns whether it
// committed.
func (c *cluster) await(master int, tid uint64) (bool, error) {
	deadline := time.Now().Add(100 * delayT)
	for {
		dto, err := c.clients[master].Txn(proto.TxnID(tid))
		if err != nil {
			return false, err
		}
		if dto.Outcome != "none" {
			return dto.Outcome == "commit", nil
		}
		if time.Now().After(deadline) {
			return false, fmt.Errorf("set-up txn %d undecided after %s", tid, 100*delayT)
		}
		time.Sleep(delayT / 4)
	}
}

// setupPatience is how long set-up keeps resubmitting transactions that
// abort. A quiet host needs one round or two; in a slow spell the 256-put
// seeding transactions miss the master's vote timer round after round.
const setupPatience = 5 * time.Second

// untilCommitted runs one transaction per element of batches, all at
// once with masters rotating, and resubmits the ones that abort until
// every batch has committed.
func (c *cluster) untilCommitted(what string, batches [][]engine.Op) error {
	type flight struct {
		batch, master int
		tid           uint64
	}
	todo := make([]int, len(batches))
	for i := range todo {
		todo[i] = i
	}
	begun := time.Now()
	for len(todo) > 0 {
		if time.Since(begun) > setupPatience {
			return fmt.Errorf("%s: %d transactions still aborting after %s", what, len(todo), setupPatience)
		}
		var flights []flight
		for _, b := range todo {
			master := roster[b%len(roster)]
			tid, err := c.submit(master, batches[b])
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			flights = append(flights, flight{b, master, tid})
		}
		todo = todo[:0]
		for _, f := range flights {
			ok, err := c.await(f.master, f.tid)
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if !ok {
				todo = append(todo, f.batch)
			}
		}
	}
	return nil
}

// prime commits one empty transaction per master, so every directed
// protocol link is dialled before traffic depends on it: the first
// transactions over cold TCP links can miss the master's 2T vote timer.
func (c *cluster) prime() error {
	return c.untilCommitted("prime links", make([][]engine.Op, len(roster)))
}

// seedAccounts writes every account's opening balance through the
// protocol, seedTxns transactions of seedOpsPerTxn puts each, and checks
// that every site holds all of them.
func (c *cluster) seedAccounts() error {
	batches := make([][]engine.Op, seedTxns)
	for b := range batches {
		ops := make([]engine.Op, seedOpsPerTxn)
		for j := range ops {
			ops[j] = engine.Op{
				Kind:  engine.OpPut,
				Key:   accountKey(b*seedOpsPerTxn + j),
				Value: engine.EncodeInt(seedBalance),
			}
		}
		batches[b] = ops
	}
	if err := c.untilCommitted("seed accounts", batches); err != nil {
		return err
	}
	// Slaves apply a commit one hop after the master decides.
	deadline := time.Now().Add(10 * delayT)
	for {
		short := 0
		for _, id := range roster {
			st, err := c.clients[id].Stats()
			if err != nil {
				return fmt.Errorf("seed accounts: %w", err)
			}
			if st.Keys != numAccounts {
				short++
			}
		}
		if short == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seed accounts: %d sites hold fewer than %d keys", short, numAccounts)
		}
		time.Sleep(delayT / 4)
	}
}

// childPIDs lists this process's children whose command name is comm.
func childPIDs(comm string) ([]int, error) {
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	var out []int
	for _, path := range stats {
		ps, err := readProcStat(path)
		if err != nil {
			continue // the process exited between the glob and the read
		}
		if ps.ppid == self && ps.comm == comm {
			out = append(out, ps.pid)
		}
	}
	return out, nil
}

// procStat is the part of /proc/<pid>/stat the benchmark uses; CPU times
// are in clock ticks.
type procStat struct {
	pid, ppid    int
	comm         string
	utime, stime uint64
	rssPages     int64
}

func readProcStat(path string) (procStat, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(raw))
}

// parseProcStat parses one /proc/<pid>/stat line. The command name sits
// in parentheses and may itself contain spaces or parentheses, so the
// fields after it are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	open, shut := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
	if open < 0 || shut < open {
		return procStat{}, fmt.Errorf("malformed stat line %q", line)
	}
	rest := strings.Fields(line[shut+1:])
	// rest[0] is field 3 (state); ppid is field 4, utime 14, stime 15, rss 24.
	if len(rest) < 22 {
		return procStat{}, fmt.Errorf("short stat line %q", line)
	}
	var ps procStat
	var err error
	if ps.pid, err = strconv.Atoi(strings.TrimSpace(line[:open])); err != nil {
		return procStat{}, err
	}
	ps.comm = line[open+1 : shut]
	if ps.ppid, err = strconv.Atoi(rest[1]); err != nil {
		return procStat{}, err
	}
	if ps.utime, err = strconv.ParseUint(rest[11], 10, 64); err != nil {
		return procStat{}, err
	}
	if ps.stime, err = strconv.ParseUint(rest[12], 10, 64); err != nil {
		return procStat{}, err
	}
	if ps.rssPages, err = strconv.ParseInt(rest[21], 10, 64); err != nil {
		return procStat{}, err
	}
	return ps, nil
}
