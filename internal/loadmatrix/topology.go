package loadmatrix

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/cluster"
	"wfreach/internal/obs"
	"wfreach/internal/replica"
	"wfreach/internal/service"
)

// driver is the slice of the SDK surface the harness drives, satisfied
// by both the single-server client.Client and the routing
// client.Cluster — scenario code does not care which.
type driver interface {
	CreateSession(ctx context.Context, req client.CreateSessionRequest) (client.SessionStats, error)
	Session(ctx context.Context, name string) (client.SessionStats, error)
	DeleteSession(ctx context.Context, name string) error
	Ingest(ctx context.Context, session string, events []client.Event) (client.EventsResponse, error)
	IngestFrames(ctx context.Context, session string, events []client.Event) (client.EventsResponse, error)
	ReachBatch(ctx context.Context, session string, pairs []client.ReachPair) ([]client.ReachAnswer, error)
	Lineage(ctx context.Context, session string, of int32) ([]int32, error)
}

// router is what a cluster write driver adds: which node owns a
// session, the node names, and a live move. client.Cluster has it.
type router interface {
	Owner(session string) string
	NodeNames() []string
	Move(ctx context.Context, session, target string) (client.MoveResponse, error)
}

// Endpoints names running servers: one server at Addr, a primary at
// Addr with a follower taking the reads, or a session-partitioned
// cluster whose map routes every call.
type Endpoints struct {
	// Addr is the server's base URL, or the primary's when Follower is
	// set. Ignored when Cluster is set.
	Addr string
	// Follower is a follower's base URL: reads go there and replica lag
	// is sampled.
	Follower string
	// Cluster is the map of a cluster driven through client.Cluster.
	Cluster *client.ClusterMap
}

// topo is a connected topology: where writes and reads go, and — when a
// follower exists — the status clients the lag sampler polls.
type topo struct {
	write driver
	read  driver
	// primary and follower are set exactly when reads go to a follower.
	primary  *client.Client
	follower *client.Client
	// scrapers holds one client per server; the harness scrapes each
	// node's /v1/metrics before and after a run and reports the summed
	// deltas as server-side truth.
	scrapers []*client.Client
}

// connect turns endpoints into the clients a run drives. No client
// retries: a run measures the servers, not a retry loop.
func connect(ep Endpoints, opts RunOptions) (*topo, error) {
	t := &topo{}
	switch {
	case ep.Cluster != nil:
		cl, err := client.NewCluster(*ep.Cluster, client.WithRetry(0, 0))
		if err != nil {
			return nil, err
		}
		t.write, t.read = cl, cl
		for _, name := range cl.NodeNames() {
			c, _ := cl.Node(name)
			t.scrapers = append(t.scrapers, c)
		}
	case ep.Follower != "":
		t.primary = client.New(ep.Addr, client.WithRetry(0, 0))
		t.follower = client.New(ep.Follower, client.WithRetry(0, 0), client.WithoutWriteRedirect())
		t.write, t.read = t.primary, t.follower
		t.scrapers = []*client.Client{t.primary, t.follower}
	default:
		c := client.New(ep.Addr, client.WithRetry(0, 0))
		t.write, t.read = c, c
		t.scrapers = []*client.Client{c}
	}
	if opts.wrapRead != nil {
		t.read = opts.wrapRead(t.read)
	}
	return t, nil
}

// serve exposes a handler on a loopback listener and returns its base
// URL — real TCP, because followers and cluster maps dial URLs.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// instrumented serves a registry behind the same request-metrics
// middleware wfserve installs (logs discarded), so harness scrapes see
// the full production metric surface, HTTP timings included.
func instrumented(reg *service.Registry) http.Handler {
	return obs.AccessLog(service.NewHandler(reg), nil, obs.AccessLogOptions{Metrics: reg.Obs()})
}

// durableNode starts one durable registry (no fsync — the harness
// measures the pipeline, not the disk) under dir and serves it.
func durableNode(dir string) (*service.Registry, string, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", nil, err
	}
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		return nil, "", nil, err
	}
	if _, err := reg.Restore(dir); err != nil {
		_ = reg.Close()
		return nil, "", nil, err
	}
	url, stop, err := serve(instrumented(reg))
	if err != nil {
		_ = reg.Close()
		return nil, "", nil, err
	}
	return reg, url, func() { stop(); _ = reg.Close() }, nil
}

// launch starts the in-process servers of a topology and returns their
// endpoints and the function that stops them all. scratch is a private
// directory for durable state; the caller owns its deletion.
//
//   - "single":   one in-memory registry; reads and writes share it.
//   - "replica":  durable primary + durable follower tailing its WAL
//     over HTTP; writes to the primary, reads to the follower.
//   - "cluster3": three durable nodes behind a shared consistent-hash
//     map; the routing client carries both reads and writes.
func launch(kind, scratch string) (Endpoints, func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (Endpoints, func(), error) {
		stop()
		return Endpoints{}, nil, err
	}
	switch kind {
	case "single":
		url, s, err := serve(instrumented(service.NewRegistry()))
		if err != nil {
			return fail(err)
		}
		return Endpoints{Addr: url}, s, nil

	case "replica":
		_, purl, pstop, err := durableNode(scratch + "/primary")
		if err != nil {
			return fail(err)
		}
		stops = append(stops, pstop)
		freg, furl, fstop, err := durableNode(scratch + "/follower")
		if err != nil {
			return fail(err)
		}
		stops = append(stops, fstop)
		f := replica.New(purl, freg, replica.Options{
			PollInterval:     25 * time.Millisecond,
			ReconnectBackoff: 10 * time.Millisecond,
			MaxBackoff:       100 * time.Millisecond,
		})
		f.Start()
		stops = append(stops, f.Close)
		return Endpoints{Addr: purl, Follower: furl}, stop, nil

	case "cluster3":
		m := api.ClusterMap{Version: 1}
		regs := make([]*service.Registry, 3)
		for i := range regs {
			reg, url, s, err := durableNode(fmt.Sprintf("%s/node%d", scratch, i))
			if err != nil {
				return fail(err)
			}
			stops = append(stops, s)
			regs[i] = reg
			m.Nodes = append(m.Nodes, api.ClusterNode{Name: fmt.Sprintf("n%d", i), URL: url})
		}
		for i, reg := range regs {
			// The controller installs the placement gate on its node; the
			// prober stays unstarted — matrix scenarios never move
			// sessions, so there is nothing to gossip.
			if _, err := cluster.New(m.Nodes[i].Name, m, reg, cluster.Options{}); err != nil {
				return fail(err)
			}
		}
		return Endpoints{Cluster: &m}, stop, nil

	default:
		return Endpoints{}, nil, fmt.Errorf("loadmatrix: unknown topology %q", kind)
	}
}
