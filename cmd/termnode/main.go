// Command termnode runs one site of the termination protocol as a
// standalone network daemon: the protocol automata over TCP, a WAL-backed
// storage engine in the site's own workspace directory, and an admin HTTP
// API for health, state, submissions and fault injection. N termnode
// processes form a real cluster; internal/netnode/harness boots them for
// tests and cluster.NewNetBackend drives them through the standard
// Cluster API.
//
// Usage:
//
//	termnode -id 1 -addr 127.0.0.1:7101 -api-port 8101 -wal-dir /var/lib/term/node-1 \
//	         -peers "1=127.0.0.1:7101/127.0.0.1:8101,2=127.0.0.1:7102/127.0.0.1:8102,3=127.0.0.1:7103/127.0.0.1:8103"
//
// Each -peers entry is id=protoAddr[/apiAddr]; the apiAddr enables the
// recovery catch-up pull from that peer. On start the node replays its
// surviving write-ahead log, resolves in-doubt transactions with real
// MsgInquire traffic against its peers, pulls commits it missed while
// down, and only then reports ready on GET /health. -clear-data wipes the
// workspace first, for a cold start with no inherited state.
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/protocol/registry"
)

func main() {
	id := flag.Int("id", 0, "this site's identifier (1..n)")
	addr := flag.String("addr", "", "protocol listen address (default: this site's -peers entry)")
	apiPort := flag.Int("api-port", 0, "admin API port on 127.0.0.1 (0 with no -api: this site's -peers apiAddr)")
	api := flag.String("api", "", "admin API listen address (overrides -api-port)")
	peersSpec := flag.String("peers", "", "comma-separated id=protoAddr[/apiAddr] for every site, self included")
	walDir := flag.String("wal-dir", "", "workspace directory for the write-ahead log (required)")
	clearData := flag.Bool("clear-data", false, "wipe the workspace directory before starting")
	protoName := flag.String("proto", registry.Default, "commit protocol name")
	t := flag.Duration("t", 50*time.Millisecond, "longest end-to-end delay bound T")
	seed := flag.Int64("seed", 0, "link-delay seed (0 derives one from -id)")
	blockedSpec := flag.String("blocked", "", "comma-separated peers behind a partition at start-up (a restart during a cut)")
	placementSpec := flag.String("placement", "", "base64 of the encoded epoch-0 shard assignment (empty: full replication)")
	traceOut := flag.String("trace-out", "", "export a JSONL trace of protocol events to this file at shutdown (relative paths land in -wal-dir)")
	flag.Parse()

	logger := log.New(os.Stdout, fmt.Sprintf("termnode[%d] ", *id), log.LstdFlags|log.Lmicroseconds)
	if err := run(*id, *addr, *apiPort, *api, *peersSpec, *walDir, *clearData, *protoName, *t, *seed, *placementSpec, *traceOut, *blockedSpec, logger); err != nil {
		logger.Fatalf("fatal: %v", err)
	}
}

func run(id int, addr string, apiPort int, apiAddr, peersSpec, walDir string, clearData bool,
	protoName string, t time.Duration, seed int64, placementSpec, traceOut, blockedSpec string,
	logger *log.Logger) error {
	if id < 1 {
		return fmt.Errorf("-id is required and must be positive")
	}
	if walDir == "" {
		return fmt.Errorf("-wal-dir is required")
	}
	protocol, err := registry.Lookup(protoName)
	if err != nil {
		return err
	}
	peers, apiPeers, err := parsePeers(peersSpec)
	if err != nil {
		return err
	}
	var blocked []proto.SiteID // Start rejects this site and non-peers
	for _, f := range strings.FieldsFunc(blockedSpec, func(r rune) bool { return r == ',' }) {
		peer, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad site %q in -blocked", f)
		}
		blocked = append(blocked, proto.SiteID(peer))
	}
	self := proto.SiteID(id)
	if _, ok := peers[self]; !ok {
		return fmt.Errorf("-peers has no entry for this site (%d)", id)
	}
	if addr == "" {
		addr = peers[self]
	}
	if apiAddr == "" {
		if apiPort > 0 {
			apiAddr = "127.0.0.1:" + strconv.Itoa(apiPort)
		} else if a := apiPeers[self]; a != "" {
			apiAddr = a
		} else {
			return fmt.Errorf("need -api-port, -api, or an apiAddr in this site's -peers entry")
		}
	}

	var asg *placement.Assignment
	if placementSpec != "" {
		raw, err := base64.StdEncoding.DecodeString(placementSpec)
		if err != nil {
			return fmt.Errorf("-placement is not base64: %w", err)
		}
		if asg, err = placement.DecodeAssignment(raw); err != nil {
			return fmt.Errorf("-placement: %w", err)
		}
		if !asg.IsMember(self) {
			return fmt.Errorf("-placement assignment has no shards for this site (%d)", id)
		}
	}

	if clearData {
		if err := netnode.ClearWorkspace(walDir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	// A relative -trace-out lands in the node's own workspace, so a
	// harness can pass one uniform flag to every daemon.
	if traceOut != "" && !filepath.IsAbs(traceOut) {
		traceOut = filepath.Join(walDir, traceOut)
	}

	node := netnode.NewNode(netnode.Options{
		ID: self, Protocol: protocol, T: t,
		Addr: addr, Peers: peers, APIPeers: apiPeers,
		Placement: asg,
		WALPath:   filepath.Join(walDir, "wal.log"),
		Seed:      seed,
		Blocked:   blocked,
		TraceOut:  traceOut,
		Logf:      logger.Printf,
	})
	if err := node.Start(); err != nil {
		return err
	}
	bound, err := node.StartAPI(apiAddr)
	if err != nil {
		node.Close()
		return err
	}
	logger.Printf("up: proto=%s api=%s wal=%s protocol=%s T=%s blocked=%v",
		node.Addr(), bound, walDir, protoName, t, blocked)

	// SIGTERM/SIGINT is a graceful stop; a crash (SIGKILL) is the fault
	// model — the WAL in -wal-dir is what the next incarnation recovers
	// from.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	logger.Printf("down: %v", sig)
	node.Close()
	return nil
}

// parsePeers parses "id=protoAddr[/apiAddr],...".
func parsePeers(spec string) (map[proto.SiteID]string, map[proto.SiteID]string, error) {
	peers := make(map[proto.SiteID]string)
	apiPeers := make(map[proto.SiteID]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		idStr, addrs, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad -peers entry %q (want id=protoAddr[/apiAddr])", entry)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || id < 1 {
			return nil, nil, fmt.Errorf("bad site in -peers entry %q", entry)
		}
		protoAddr, apiAddr, _ := strings.Cut(addrs, "/")
		if protoAddr == "" {
			return nil, nil, fmt.Errorf("empty address in -peers entry %q", entry)
		}
		peers[proto.SiteID(id)] = protoAddr
		if apiAddr != "" {
			apiPeers[proto.SiteID(id)] = apiAddr
		}
	}
	if len(peers) == 0 {
		return nil, nil, fmt.Errorf("-peers is required")
	}
	return peers, apiPeers, nil
}
