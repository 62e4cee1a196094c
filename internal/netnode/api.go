package netnode

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"time"

	"termproto/internal/proto"
	"termproto/internal/recovery"
)

// StartAPI binds and serves the node's admin HTTP API, returning the
// bound address (":0" picks a free port). The API is the node's
// operational surface: health and readiness, state snapshot, counters,
// the in-doubt list and the placement epoch to read; submissions,
// partitions, heal-edge resolution and fixture loads to write.
func (n *Node) StartAPI(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: n.apiMux()}
	n.mu.Lock()
	n.api, n.wires = srv, make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	return ln.Addr().String(), nil
}

func (n *Node) apiMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", n.handleHealth)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /txns", n.handleTxns)
	mux.HandleFunc("GET /indoubt", n.handleInDoubt)
	mux.HandleFunc("GET /snapshot", n.handleSnapshot)
	mux.HandleFunc("GET /recovery", n.handleRecovery)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /metricsjson", n.handleMetricsJSON)
	mux.HandleFunc("GET /wire", n.handleWire)
	mux.HandleFunc("POST /partition", n.handlePartition)
	mux.HandleFunc("POST /resolve", n.handleResolve)
	mux.HandleFunc("POST /load", n.handleLoad)
	// Live profiling rides the same admin port: go tool pprof
	// http://<api-addr>/debug/pprof/profile while a workload runs.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the registry in Prometheus text exposition
// format (version 0.0.4): counters, gauges, and cumulative-bucket
// histograms, one family per HELP/TYPE block.
func (n *Node) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.MetricsSnapshot().WritePrometheus(w) //nolint:errcheck // client gone is client's problem
}

// handleMetricsJSON serves the same snapshot as JSON — the structured
// form the net backend merges into the cluster-level registry.
func (n *Node) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, n.MetricsSnapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is client's problem
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if !n.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, HealthDTO{ID: int(n.opts.ID), Ready: n.Ready()})
}

func (n *Node) handleStats(w http.ResponseWriter, _ *http.Request) {
	yes, no, commits, aborts := n.eng.Stats()
	sent, delivered, bounced, dropped := n.tr.Counters()
	blocked := n.tr.BlockedList()
	slices.Sort(blocked)
	ws := n.eng.WALStats()
	st := StatsDTO{
		ID: int(n.opts.ID), T: n.opts.T.String(),
		VoteYes: yes, VoteNo: no, Commits: commits, Aborts: aborts,
		Sent: sent, Delivered: delivered, Bounced: bounced, Dropped: dropped,
		Keys:       n.eng.Len(),
		WalRecords: ws.Records, WalSyncs: ws.Syncs,
		WalBatches: ws.Syncs, WalBatchedRecords: ws.Records,
	}
	if commits > 0 {
		st.FsyncsPerCommit = float64(ws.Syncs) / float64(commits)
	}
	for _, id := range blocked {
		st.Blocked = append(st.Blocked, int(id))
	}
	st.Txns = len(n.site.Txns())
	writeJSON(w, st)
}

func txnDTO(info TxnInfo) TxnDTO {
	dto := TxnDTO{
		TID:     uint64(info.TID),
		Master:  int(info.Master),
		Outcome: info.Outcome.String(),
		Started: info.Started,
		State:   info.State,
	}
	for _, id := range info.Sites {
		dto.Sites = append(dto.Sites, int(id))
	}
	if !info.DecidedAt.IsZero() {
		dto.DecidedAtMicro = info.DecidedAt.UnixMicro()
	}
	return dto
}

func (n *Node) handleTxns(w http.ResponseWriter, _ *http.Request) {
	infos := n.Txns()
	out := make([]TxnDTO, 0, len(infos))
	for _, info := range infos {
		out = append(out, txnDTO(info))
	}
	writeJSON(w, out)
}

func (n *Node) handleInDoubt(w http.ResponseWriter, _ *http.Request) {
	dto := InDoubtDTO{InDoubt: n.eng.InDoubt()}
	for _, d := range n.site.Unresolved() {
		dto.Pending = append(dto.Pending, d.TID)
	}
	writeJSON(w, dto)
}

func (n *Node) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap, unstable := n.eng.StableSnapshot()
	dto := SnapshotDTO{Data: snap}
	for k := range unstable {
		dto.Unstable = append(dto.Unstable, k)
	}
	sort.Strings(dto.Unstable)
	writeJSON(w, dto)
}

func recoveryDTO(st *recovery.Stats, err error) RecoveryDTO {
	dto := RecoveryDTO{}
	if err != nil {
		dto.Err = err.Error()
	}
	if st != nil {
		dto.Ran = true
		dto.Replayed = st.Replayed
		dto.InDoubt = st.InDoubt
		dto.ResolvedCommit = st.ResolvedCommit
		dto.ResolvedAbort = st.ResolvedAbort
		dto.Unresolved = st.Unresolved
		dto.CaughtUpKeys = st.CaughtUpKeys
	}
	return dto
}

func (n *Node) handleRecovery(w http.ResponseWriter, _ *http.Request) {
	st, err := n.RecoveryResult()
	writeJSON(w, recoveryDTO(st, err))
}

// handleWire turns the request's connection into a client's data path
// (see wire.go): frames in, one reply frame per request, until the client
// hangs up, the node closes, or a frame is not one a client may send —
// malformed, not a submit or a query, or a submit for another site — which
// closes the connection and starts nothing.
func (n *Node) handleWire(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != WireUpgrade {
		http.Error(w, "want Upgrade: "+WireUpgrade, http.StatusBadRequest)
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.wires[conn] = struct{}{}
	n.wg.Add(1)
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.wires, conn)
		n.mu.Unlock()
		n.wg.Done()
	}()
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + WireUpgrade + "\r\n\r\n")); err != nil {
		return
	}
	var scratch, out []byte
	for {
		var body []byte
		if body, scratch, err = ReadFrameInto(rw, scratch); err != nil {
			return
		}
		if out, err = n.answerFrame(beginFrame(out), body); err != nil {
			n.opts.Logf("wire: closing %s: %v", conn.RemoteAddr(), err)
			return
		}
		if _, err := conn.Write(sealFrame(out)); err != nil {
			return
		}
	}
}

// answerFrame acts on one client frame and appends the reply's body.
func (n *Node) answerFrame(out, body []byte) ([]byte, error) {
	if body[0] == frameQuery {
		tid, err := DecodeTID(body, frameQuery)
		if err != nil {
			return out, err
		}
		dto, err := json.Marshal(txnDTO(n.Txn(tid)))
		return append(append(out, frameTxn), dto...), err
	}
	m, err := DecodeMsg(body)
	if err != nil {
		return out, err
	}
	if m.Kind != proto.MsgXact || m.To != n.opts.ID || m.Undeliverable {
		return out, fmt.Errorf("%w: %v for site %d is not a submit to site %d", ErrWire, m.Kind, m.To, n.opts.ID)
	}
	env, err := DecodeXact(m.Payload)
	if err != nil {
		return out, err
	}
	return AppendTID(out, frameAck, m.TID), n.Submit(m.TID, env.Master, env.Sites, env.NoVotes, env.Body)
}

func (n *Node) handlePartition(w http.ResponseWriter, r *http.Request) {
	var req PartitionReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.AtMicro < 0 {
		http.Error(w, fmt.Sprintf("netnode: atMicro %d is before the epoch", req.AtMicro), http.StatusBadRequest)
		return
	}
	blocked := make([]proto.SiteID, len(req.Blocked))
	for i, id := range req.Blocked {
		blocked[i] = proto.SiteID(id)
	}
	if err := n.checkBlocked(blocked); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var at time.Time
	if req.AtMicro > 0 {
		at = time.UnixMicro(req.AtMicro)
		if late := time.Since(at); late > 0 {
			n.opts.Logf("partition: blocklist %v arrived %v after its instant; applied at once", blocked, late)
		}
	}
	n.SetBlocked(blocked, at)
	writeJSON(w, struct{}{})
}

// handleResolve re-runs the inquiry round for what recovery left in doubt
// (the heal edge) and answers when the round ends — at once when nothing
// was pending.
func (n *Node) handleResolve(w http.ResponseWriter, r *http.Request) {
	done := make(chan RecoveryDTO, 1)
	n.loop.Do(func() {
		n.site.RetryInDoubt(func(st recovery.Stats, ran bool) {
			dto := recoveryDTO(&st, nil)
			dto.Ran = ran
			done <- dto
		})
	})
	select {
	case dto := <-done:
		writeJSON(w, dto)
	case <-r.Context().Done(): // the client hung up, or the node is closing
	}
}

func (n *Node) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Under sharded placement a fixture posted to every node must land
	// only at the shards each node actually hosts.
	asg := n.opts.Placement
	keys := make([]string, 0, len(req.Data))
	for k := range req.Data {
		if asg == nil || asg.Hosts(n.opts.ID, k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if err := n.eng.PutBatch(keys, req.Data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, struct{}{})
}
