// Command wfserve is the concurrent provenance service: a long-lived
// HTTP server hosting many labeling sessions, each ingesting workflow
// execution events as they happen and answering label-based
// reachability queries over the partial, still-running execution.
//
// Usage:
//
//	wfserve -addr :8080 -data /var/lib/wfserve
//	wfserve -addr 127.0.0.1:0 -data /tmp/wfdata -session demo=BioAID
//	wfserve -addr :8080 -data /var/lib/wfserve -debug-addr 127.0.0.1:6060
//
// # Observability
//
// GET /v1/metrics serves the node's metrics registry in the
// Prometheus text exposition format: ingest throughput, WAL commit
// and fsync latency, snapshot and restore durations, replica lag,
// cluster move counters (metric table in ARCHITECTURE.md). The
// server writes every line it logs as one log/slog text record on
// stderr, and nothing on stdout: startup, restore, replication and
// cluster progress, shutdown, and one record per request (request id,
// method, route, status, bytes, duration); requests slower than
// -slow-request get an extra warn record. -debug-addr serves
// net/http/pprof on a separate listener, so profiling never shares
// the API port.
//
// -data is required: every session persists its specification, an
// append-only write-ahead log of ingested events, and periodic label
// snapshots under the given directory (the on-disk format is specified
// in ARCHITECTURE.md). Without it wfserve prints its usage and exits 2,
// creating nothing. On startup all sessions found there are restored —
// a server killed mid-ingest comes back answering exactly what it had
// acknowledged — and ingestion resumes where the log ends. -fsync
// (default true) makes acknowledged batches survive machine crashes,
// not just process crashes; -snapshot-every tunes how many events may
// need label re-encoding at recovery. Concurrent batches across
// sessions share WAL flushes through group commit.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting connections, drains in-flight requests (live WAL tails
// are cut by the shutdown signal so the drain never waits on them),
// then flushes and closes every session's write-ahead log, so a
// planned restart never relies on crash recovery.
//
// # Replication
//
//	wfserve -addr :8081 -data /var/lib/wfreplica -follow http://primary:8080
//	wfserve -promote http://replica:8081
//
// With -follow the server is a read-only follower: it discovers the
// primary's sessions, tails each session's write-ahead log over
// GET /v1/sessions/{name}/wal (history first, then live), and replays
// the shipped frames — byte-identical to both the primary's WAL
// records and the binary ingest frames — into local sessions teed to
// its own WAL. It serves the full query surface (reach, batch reach,
// lineage, stats) while its routing gate refuses every write with a
// 421 read_only whose detail is the primary's URL. That is the
// server's one redirect rule, shared with -cluster: a 421 (read_only
// or wrong_node) applies nothing and names where to resend, and the
// Go SDK's Client resends there once. A restarted follower resumes
// from its own recovered log. GET /v1/replication/status reports role
// and per-session sequences on both sides; replica lag is the
// primary's wal_seq minus the follower's.
//
// -promote is the failover command: it POSTs /v1/replication/promote
// to the named follower — final catch-up from the primary if it is
// still reachable, then flip to writable — prints the resulting
// status, and exits. The promoted server's WAL is a valid
// continuation of everything it replicated, so its next restart
// recovers normally.
//
// # Clustering
//
//	wfserve -addr :8081 -data /var/lib/wf-a -cluster cluster.json -node a
//	wfserve -addr :8082 -data /var/lib/wf-b -cluster cluster.json -node b
//
// With -cluster the server is one node of a session-partitioned
// cluster: the JSON map file (shared by every node) lists the node
// set, sessions are placed on nodes by consistent hashing on the
// session name, and each node serves only the sessions it owns: its
// routing gate is the placement check. A request for a session owned
// elsewhere is refused with a 421 naming the owner's base URL —
// wrong_node where the node holds no copy, read_only for a write to a
// copy a move left behind; the Go SDK's client.Cluster follows such
// refusals and learns the owner's map. The /v1/cluster routes expose
// the map, a health view (role, WAL sequences, peer liveness), and
// POST /v1/cluster/move, which transfers one live session to another
// node by tailing its WAL — ingest continues on the old owner until
// the handoff instant, and no acknowledged event is lost. Cluster mode
// composes with per-node replication: give each node its own -follow
// replica and record it in the map's "follower" fields so clients can
// fail over.
//
// The versioned /v1 API (wire contract in internal/api, full
// reference with curl and Go-client snippets in docs/API.md; drive it
// programmatically with the wfreach/client SDK):
//
//	POST   /v1/sessions                 {"name":"r1","builtin":"BioAID"}
//	POST   /v1/sessions                 {"name":"r2","spec_xml":"<spec>…"}
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{name}          session stats (also /v1/sessions/{name}/stats)
//	DELETE /v1/sessions/{name}          drop a session
//	POST   /v1/sessions/{name}/events   {"events":[…]} — or a binary frame stream
//	                                    (Content-Type application/x-wfreach-frame)
//	POST   /v1/sessions/{name}/reach    {"pairs":[{"from":3,"to":141},…]} batch query
//	GET    /v1/sessions/{name}/lineage  ?of=12&cursor=&limit= (paginated)
//
// Events carry either a specification reference ("graph","vertex") or
// a module "name" (the Section 5.3 naming-restriction setting).
// Binary-frame ingest is teed to the write-ahead log byte-for-byte —
// the wire frame and the WAL frame are the same format. Errors are
// structured ({"error":{"code","message","detail"}}) with
// machine-readable codes. The bound address is logged on startup
// (msg=listening addr=…) so callers can use -addr :0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wfreach/client"
	"wfreach/internal/cluster"
	"wfreach/internal/obs"
	"wfreach/internal/replica"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

type sessionFlags []string

func (s *sessionFlags) String() string     { return strings.Join(*s, ";") }
func (s *sessionFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	dataDir := flag.String("data", "", "data directory (required): persist sessions (WAL + snapshots) and restore them on boot")
	fsync := flag.Bool("fsync", true, "fsync the WAL before acknowledging a batch")
	snapEvery := flag.Int("snapshot-every", 0, "events between label snapshots (0 = default, <0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "in-flight request drain timeout on shutdown")
	follow := flag.String("follow", "", "run as a read-only follower replicating the primary at this base URL")
	followPoll := flag.Duration("follow-poll", 2*time.Second, "with -follow: session-discovery poll interval")
	promote := flag.String("promote", "", "admin mode: promote the follower at this base URL to writable, print its status, exit")
	clusterFile := flag.String("cluster", "", "run as one node of a session-partitioned cluster defined by this JSON map file (requires -node)")
	nodeName := flag.String("node", "", "with -cluster: this server's node name in the map")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty disables)")
	slowReq := flag.Duration("slow-request", time.Second, "log a warn line for requests slower than this (0 disables)")
	var sessions sessionFlags
	flag.Var(&sessions, "session", "pre-create a session \"name=Builtin\" (repeatable)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fail := func(err error) {
		log.Error("wfserve failed", "err", err)
		os.Exit(1)
	}
	if *promote != "" {
		if err := runPromote(*promote); err != nil {
			fail(err)
		}
		return
	}
	if *dataDir == "" {
		fmt.Fprintln(flag.CommandLine.Output(), "wfserve: -data is required: every session persists to a write-ahead log under it")
		flag.Usage()
		os.Exit(2)
	}
	if *follow != "" && len(sessions) > 0 {
		fail(fmt.Errorf("-session creates sessions, which a -follow replica must not; drop one of the flags"))
	}
	if (*clusterFile == "") != (*nodeName == "") {
		fail(fmt.Errorf("-cluster and -node go together: the map file defines the cluster, -node says which entry this server is"))
	}
	if *clusterFile != "" && *follow != "" {
		fail(fmt.Errorf("-cluster and -follow are different roles: a cluster node is a primary; run its replica as a plain -follow server and list it in the map's follower field"))
	}

	reg, err := service.NewDurableRegistry(service.DurableOptions{
		Dir: *dataDir, SnapshotEvery: *snapEvery, Fsync: *fsync,
	})
	if err != nil {
		fail(err)
	}
	restoreStart := time.Now()
	restored, err := reg.Restore(*dataDir)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(restoreStart)
	var labels int64
	for _, name := range restored {
		if s, ok := reg.Get(name); ok {
			labels += s.Vertices()
		}
	}
	rate := float64(labels) / max(elapsed.Seconds(), 1e-9)
	log.Info("restored", "data", *dataDir, "sessions", len(restored),
		"dur", elapsed.Round(time.Millisecond), "labels_per_sec", int64(rate))
	for _, name := range restored {
		if s, ok := reg.Get(name); ok {
			st := s.Stats()
			log.Info("restored session", "session", name, "vertices", st.Vertices,
				"arena_vertices", st.ArenaVertices, "wal_seq", s.WALSeq())
		}
	}
	var follower *replica.Follower
	if *follow != "" {
		follower = replica.New(*follow, reg, replica.Options{
			PollInterval: *followPoll,
			Log:          log,
		})
		follower.Start()
		log.Info("following; read-only until promoted", "primary", *follow)
	}
	for _, sf := range sessions {
		name, builtin, ok := strings.Cut(sf, "=")
		if !ok {
			fail(fmt.Errorf("-session %q is not \"name=Builtin\"", sf))
		}
		if _, exists := reg.Get(name); exists {
			// The restored session wins; its spec may differ from the
			// flag's builtin, so say so instead of silently skipping.
			log.Warn("session already restored from -data; -session ignored", "session", name, "flag", sf)
			continue
		}
		if err := createBuiltin(reg, name, builtin); err != nil {
			fail(err)
		}
		log.Info("session created", "session", name, "builtin", builtin)
	}

	var ctl *cluster.Controller
	if *clusterFile != "" {
		m, err := cluster.LoadMap(*clusterFile)
		if err != nil {
			fail(err)
		}
		ctl, err = cluster.New(*nodeName, m, reg, log)
		if err != nil {
			fail(err)
		}
		ctl.Start()
		log.Info("cluster node", "node", *nodeName, "nodes", len(m.Nodes),
			"map_version", m.Version, "map", *clusterFile)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	log.Info("listening", "addr", ln.Addr().String())

	if *debugAddr != "" {
		// pprof rides the default mux (the blank net/http/pprof import),
		// served on its own listener so profiling never shares a port —
		// or an authn perimeter — with the API.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(fmt.Errorf("-debug-addr: %w", err))
		}
		go func() { _ = http.Serve(dln, nil) }()
		log.Info("pprof listening", "addr", dln.Addr().String(), "path", "/debug/pprof/")
	}

	mode := "durable"
	if *follow != "" {
		mode = "follower"
	}
	if *clusterFile != "" {
		mode = "cluster"
	}
	var walSeqs []string
	for _, name := range reg.Names() {
		if s, ok := reg.Get(name); ok {
			walSeqs = append(walSeqs, fmt.Sprintf("%s=%d", name, s.WALSeq()))
		}
	}
	log.Info("server started",
		"mode", mode,
		"addr", ln.Addr().String(),
		"data", *dataDir,
		"sessions", len(walSeqs),
		"wal_seqs", strings.Join(walSeqs, ","),
	)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and
	// close the registry so the WALs end flushed instead of relying on
	// crash recovery at the next boot. Request contexts derive from the
	// signal context, so live WAL tails end at the signal instead of
	// pinning the drain until its timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Handler:     obs.AccessLog(service.NewHandler(reg), log, *slowReq, reg.Obs()),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		log.Info("shutting down", "timeout", *drain)
		drainStart := time.Now()
		if follower != nil {
			follower.Close()
		}
		if ctl != nil {
			ctl.Close()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Warn("drain incomplete", "err", err)
		}
		if err := reg.Close(); err != nil {
			fail(fmt.Errorf("closing sessions: %w", err))
		}
		log.Info("shutdown complete", "drain", time.Since(drainStart).Round(time.Millisecond))
	}
}

// runPromote drives the promote admin endpoint on a running follower.
func runPromote(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.New(base).Promote(ctx)
	if err != nil {
		return fmt.Errorf("promote %s: %w", base, err)
	}
	fmt.Printf("wfserve: promoted %s to %s\n", base, st.Role)
	for _, s := range st.Sessions {
		fmt.Printf("wfserve: session %q at WAL seq %d\n", s.Name, s.WALSeq)
	}
	return nil
}

func createBuiltin(reg *service.Registry, name, builtin string) error {
	s, ok := service.Builtin(builtin)
	if !ok {
		return fmt.Errorf("unknown builtin %q (have %s)", builtin, strings.Join(service.BuiltinNames(), ", "))
	}
	g, err := spec.Compile(s)
	if err != nil {
		return err
	}
	_, err = reg.Create(name, g, service.Config{})
	return err
}
