package netnode

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/site"
)

// The admin API's JSON vocabulary, shared by the server (api.go), the Go
// client below, and the cluster NetBackend. []byte fields ride as base64,
// encoding/json's default. Submit and Txn are the data path and do not
// ride HTTP: their two types below are what the caller sees of the frames.

// HealthDTO is GET /health.
type HealthDTO struct {
	ID    int  `json:"id"`
	Ready bool `json:"ready"`
}

// StatsDTO is GET /stats: engine counters, transport counters, and the
// placement epoch the node serves under (always 0: placement over daemons
// is static).
type StatsDTO struct {
	ID      int    `json:"id"`
	T       string `json:"t"`
	Epoch   uint64 `json:"epoch"`
	VoteYes uint64 `json:"voteYes"`
	VoteNo  uint64 `json:"voteNo"`
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`

	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Bounced   uint64 `json:"bounced"`
	Dropped   uint64 `json:"dropped"`

	Txns    int   `json:"txns"`
	Keys    int   `json:"keys"`
	Blocked []int `json:"blocked,omitempty"`

	// WAL durability counters: how many records reached stable storage
	// and how many Sync syscalls that took. FsyncsPerCommit is Syncs /
	// Commits, 0 before the first commit.
	WalRecords      uint64  `json:"walRecords"`
	WalSyncs        uint64  `json:"walSyncs"`
	FsyncsPerCommit float64 `json:"fsyncsPerCommit"`
	// WalBatches and WalBatchedRecords repeat WalSyncs and WalRecords
	// (one flush per append). They stay only because bench/ reads them
	// (ROADMAP 10b).
	WalBatches        uint64 `json:"walBatches"`
	WalBatchedRecords uint64 `json:"walBatchedRecords"`
}

// TxnDTO is the answer to Client.Txn and the elements of GET /txns.
type TxnDTO struct {
	TID            uint64 `json:"tid"`
	Master         int    `json:"master,omitempty"`
	Sites          []int  `json:"sites,omitempty"`
	Outcome        string `json:"outcome"`
	DecidedAtMicro int64  `json:"decidedAtMicro,omitempty"`
	Started        bool   `json:"started"`
	State          string `json:"state"`
}

// InDoubtDTO is GET /indoubt: transactions prepared but undecided in the
// engine, plus the subset recovery asked about that no answer has resolved
// yet.
type InDoubtDTO struct {
	InDoubt []uint64 `json:"inDoubt"`
	Pending []uint64 `json:"pending,omitempty"`
}

// SnapshotDTO is GET /snapshot: committed state plus the keys held by
// in-flight transactions (whose committed values a puller must not adopt).
type SnapshotDTO struct {
	Data     map[string][]byte `json:"data"`
	Unstable []string          `json:"unstable,omitempty"`
}

// SubmitReq is Client.Submit: start a transaction with this node as
// master. NoVotes lists sites whose scripted voter said no — evaluated by
// the submitting client, since a Go closure cannot cross processes.
type SubmitReq struct {
	TID     uint64 `json:"tid"`
	Master  int    `json:"master"`
	Sites   []int  `json:"sites"`
	NoVotes []int  `json:"noVotes,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// PartitionReq is POST /partition: replace the node's link blocklist
// (empty heals) from the instant AtMicro on, in Unix microseconds; 0, or
// an instant already past, is the moment the node applies it.
type PartitionReq struct {
	Blocked []int `json:"blocked"`
	AtMicro int64 `json:"atMicro,omitempty"`
}

// clientTimeout bounds one admin request, one dial and one round trip on
// the wire connection.
const clientTimeout = 10 * time.Second

// Client drives one node: its admin API over HTTP, and the data path —
// Submit and Txn — as frames over one long-lived connection upgraded on
// the same port (see wire.go), dialled at first use.
type Client struct {
	hostport string
	hc       *http.Client

	mu   sync.Mutex // one round trip on the wire connection at a time
	conn net.Conn
	br   *bufio.Reader
	out  []byte // the request frame, kept for the retry
	in   []byte // frame read scratch
}

// NewClient returns a client for the node whose admin API listens on
// hostport.
func NewClient(hostport string) *Client {
	return &Client{hostport: hostport, hc: &http.Client{Timeout: clientTimeout}}
}

// Close hangs up the wire connection and drops idle admin connections.
// The client stays usable: the next call dials again.
func (c *Client) Close() {
	c.mu.Lock()
	c.hangUp()
	c.mu.Unlock()
	c.hc.CloseIdleConnections()
}

func (c *Client) hangUp() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// dial opens the wire connection: GET /wire, answered by 101.
func (c *Client) dial() error {
	conn, err := net.DialTimeout("tcp", c.hostport, clientTimeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(clientTimeout)) //nolint:errcheck // a conn that cannot take a deadline fails the write
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /wire HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", c.hostport, WireUpgrade) //nolint:errcheck // a failed write fails the read
	resp, err := http.ReadResponse(br, nil)
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		err = fmt.Errorf("netnode client: GET /wire: %s", resp.Status)
	}
	if err != nil {
		conn.Close()
		return err
	}
	c.conn, c.br = conn, br
	return nil
}

// roundTrip sends the frame in c.out and returns the reply's body, valid
// until the next call. A failure on a connection kept from an earlier call
// gets one redial-and-retry, as transport.write does (the node may have
// been restarted); a submit delivered twice that way is dropped by the site
// loop. Called with c.mu held.
func (c *Client) roundTrip() ([]byte, error) {
	for {
		kept := c.conn != nil
		if !kept {
			if err := c.dial(); err != nil {
				return nil, err
			}
		}
		c.conn.SetDeadline(time.Now().Add(clientTimeout)) //nolint:errcheck // as in dial
		_, err := c.conn.Write(c.out)
		if err == nil {
			var body []byte
			if body, c.in, err = ReadFrameInto(c.br, c.in); err == nil {
				return body, nil
			}
		}
		c.hangUp()
		if !kept {
			return nil, fmt.Errorf("netnode client: wire to %s: %w", c.hostport, err)
		}
	}
}

// drainClose reads a response body to EOF before closing it: net/http
// reuses a connection only once its response has been fully read, and a
// body abandoned early costs a fresh TCP dial on the next request.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body) //nolint:errcheck // a failed drain just forfeits the reuse
	body.Close()
}

func (c *Client) get(path string, out any) error {
	resp, err := c.hc.Get("http://" + c.hostport + path)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("netnode client: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post("http://"+c.hostport+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("netnode client: POST %s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health returns the node's readiness (error while it is still
// recovering or not yet listening).
func (c *Client) Health() (HealthDTO, error) {
	var out HealthDTO
	err := c.get("/health", &out)
	return out, err
}

// Stats returns the node's counters.
func (c *Client) Stats() (StatsDTO, error) {
	var out StatsDTO
	err := c.get("/stats", &out)
	return out, err
}

// Txn returns the node's view of one transaction.
func (c *Client) Txn(tid proto.TxnID) (TxnDTO, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = sealFrame(AppendTID(beginFrame(c.out), frameQuery, tid))
	var out TxnDTO
	body, err := c.roundTrip()
	if err == nil && body[0] != frameTxn {
		err = fmt.Errorf("%w: frame kind %d in answer to a query", ErrWire, body[0])
	}
	if err == nil {
		err = json.Unmarshal(body[1:], &out)
	}
	return out, err
}

// Txns returns the node's live transaction table.
func (c *Client) Txns() ([]TxnDTO, error) {
	var out []TxnDTO
	err := c.get("/txns", &out)
	return out, err
}

// InDoubt returns the node's in-doubt transactions.
func (c *Client) InDoubt() (InDoubtDTO, error) {
	var out InDoubtDTO
	err := c.get("/indoubt", &out)
	return out, err
}

// Snapshot pulls the node's committed state and unstable key set.
func (c *Client) Snapshot() (map[string][]byte, map[string]bool, error) {
	var out SnapshotDTO
	if err := c.get("/snapshot", &out); err != nil {
		return nil, nil, err
	}
	unstable := make(map[string]bool, len(out.Unstable))
	for _, k := range out.Unstable {
		unstable[k] = true
	}
	return out.Data, unstable, nil
}

// Metrics returns the node's metrics registry snapshot (GET
// /metricsjson) — the structured form; GET /metrics on the same port
// serves Prometheus text.
func (c *Client) Metrics() (obs.Snapshot, error) {
	var out obs.Snapshot
	err := c.get("/metricsjson", &out)
	return out, err
}

// Recovery returns the node's startup recovery report (GET /recovery).
func (c *Client) Recovery() (site.Stats, error) {
	var out site.Stats
	err := c.get("/recovery", &out)
	return out, err
}

// Submit starts a transaction coordinated by this node: the MsgXact frame
// a slave would receive, addressed to the master. It returns once the
// node's loop has the transaction; a submit the node will not coordinate
// (another site's, fewer than two participants) closes the connection.
func (c *Client) Submit(req SubmitReq) error {
	env := XactEnvelope{Master: proto.SiteID(req.Master), Body: req.Payload}
	for _, id := range req.Sites {
		env.Sites = append(env.Sites, proto.SiteID(id))
	}
	for _, id := range req.NoVotes {
		env.NoVotes = append(env.NoVotes, proto.SiteID(id))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = sealFrame(AppendMsg(beginFrame(c.out), proto.Msg{
		TID: proto.TxnID(req.TID), To: env.Master, Kind: proto.MsgXact, Payload: EncodeXact(env),
	}))
	body, err := c.roundTrip()
	if err == nil {
		_, err = DecodeTID(body, frameAck)
	}
	return err
}

// Partition replaces the node's link blocklist from instant at on; an
// empty list heals.
func (c *Client) Partition(blocked []proto.SiteID, at time.Time) error {
	req := PartitionReq{Blocked: make([]int, len(blocked)), AtMicro: at.UnixMicro()}
	for i, id := range blocked {
		req.Blocked[i] = int(id)
	}
	return c.post("/partition", req, nil)
}
