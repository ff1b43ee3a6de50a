package client_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/cluster"
	"wfreach/internal/service"
)

// newTestCluster builds an n-node durable cluster (registries,
// servers, controllers) and the shared map.
func newTestCluster(t *testing.T, n int) ([]*service.Registry, []*cluster.Controller, client.ClusterMap) {
	t.Helper()
	regs := make([]*service.Registry, n)
	m := client.ClusterMap{Version: 1}
	for i := range regs {
		reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir(), Fsync: false})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = reg.Close() })
		srv := httptest.NewServer(service.NewHandler(reg))
		t.Cleanup(srv.Close)
		regs[i] = reg
		m.Nodes = append(m.Nodes, client.ClusterNode{Name: fmt.Sprintf("n%d", i), URL: srv.URL})
	}
	ctls := make([]*cluster.Controller, n)
	for i, reg := range regs {
		ctl, err := cluster.New(m.Nodes[i].Name, m, reg, testLog(t))
		if err != nil {
			t.Fatal(err)
		}
		ctls[i] = ctl
	}
	return regs, ctls, m
}

// testLog sends the controller's records to the test log, so a failing
// run shows the moves and merges that led to it.
func testLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// TestClusterClientRouting drives the full session lifecycle through
// the routing client: every call lands on the owner without the
// caller naming nodes, and a move is chased transparently by a stale
// client.
func TestClusterClientRouting(t *testing.T) {
	regs, _, m := newTestCluster(t, 3)
	cl, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Spread a handful of sessions; each must materialize only on the
	// registry of the node the map places it on.
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	owners := map[string]string{}
	for _, name := range names {
		if _, err := cl.CreateSession(ctx, client.CreateSessionRequest{Name: name, Builtin: "RunningExample"}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		owners[name] = cl.Owner(name)
	}
	placed := 0
	for i, reg := range regs {
		node := fmt.Sprintf("n%d", i)
		for _, name := range names {
			_, here := reg.Get(name)
			if want := owners[name] == node; here != want {
				t.Errorf("session %s on %s: present=%v, want %v", name, node, here, want)
			}
			if here {
				placed++
			}
		}
	}
	if placed != len(names) {
		t.Fatalf("%d sessions materialized, want %d", placed, len(names))
	}
	if len(owners) > 0 {
		distinct := map[string]bool{}
		for _, o := range owners {
			distinct[o] = true
		}
		if len(distinct) < 2 {
			t.Logf("note: all %d sessions hashed to one node (legal, just unlucky)", len(names))
		}
	}

	// Ingest + query through the router, verified against the oracle.
	events, r := generate(t, "RunningExample", 600, 5)
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	if _, err := cl.Ingest(ctx, "alpha", wire[:300]); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := cl.IngestFrames(ctx, "alpha", wire[300:]); err != nil {
		t.Fatalf("ingest frames: %v", err)
	}
	st, err := cl.Session(ctx, "alpha")
	if err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	var pairs []client.ReachPair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, client.ReachPair{
			From: int32(events[(i*13)%len(events)].V), To: int32(events[(i*31)%len(events)].V)})
	}
	answers, err := cl.ReachBatch(ctx, "alpha", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if want := r.Reaches(wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)); ans.Code != "" || ans.Reachable != want {
			t.Fatalf("pair %d: %+v, oracle %v", i, ans, want)
		}
	}

	// Cluster-wide list: all sessions, each exactly once.
	list, err := cl.Sessions(ctx)
	if err != nil || len(list) != len(names) {
		t.Fatalf("sessions: %d entries, %v", len(list), err)
	}

	// Move alpha to a node that does not own it; the mover adopts the
	// response map immediately.
	target := "n0"
	if owners["alpha"] == "n0" {
		target = "n1"
	}
	mv, err := cl.Move(ctx, "alpha", target)
	if err != nil || mv.To != target || mv.Events != int64(len(events)) {
		t.Fatalf("move: %+v, %v", mv, err)
	}
	if cl.Owner("alpha") != target {
		t.Fatalf("mover still routes alpha to %s", cl.Owner("alpha"))
	}
	if st, err := cl.Session(ctx, "alpha"); err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("post-move stats via mover: %+v, %v", st, err)
	}

	// A second client still holding the original map: reads against
	// the old owner's retained copy are served (stale, like a
	// follower's), so reads alone teach it nothing...
	stale, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	if o := stale.Owner("alpha"); o == target {
		t.Fatalf("stale client already routes to %s — test is vacuous", target)
	}
	if st, err := stale.Session(ctx, "alpha"); err != nil || st.Vertices != int64(len(events)) {
		t.Fatalf("stale read: %+v, %v", st, err)
	}
	// ...but its first write routes to the old owner, which answers
	// read_only naming the new one; the client merges the fix, the
	// retried call lands on the new owner, and the delete (a write)
	// goes through.
	if err := stale.DeleteSession(ctx, "alpha"); err != nil {
		t.Fatalf("delete via stale client: %v", err)
	}
	if o := stale.Owner("alpha"); o != target {
		t.Fatalf("stale client learned owner %s, want %s", o, target)
	}
	if _, ok := regs[nodeIndex(target)].Get("alpha"); ok {
		t.Fatal("alpha still on the new owner after delete")
	}
}

// nodeIndex maps a test node name "n<i>" back to its registry index.
func nodeIndex(name string) int {
	var i int
	fmt.Sscanf(name, "n%d", &i)
	return i
}

// failoverFixture is a one-node cluster whose node entry names a
// follower: a second, independent writable server standing in for an
// already-promoted replica that holds the session with the first batch
// replicated.
func failoverFixture(t *testing.T) (primary, follower *service.Registry, kill func(), m client.ClusterMap, wire []client.Event) {
	t.Helper()
	newServer := func() (*service.Registry, *httptest.Server) {
		reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir(), Fsync: false})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = reg.Close() })
		srv := httptest.NewServer(service.NewHandler(reg))
		t.Cleanup(srv.Close)
		return reg, srv
	}
	regA, srvA := newServer()
	regB, srvB := newServer()
	m = client.ClusterMap{Version: 1,
		Nodes: []client.ClusterNode{{Name: "n0", URL: srvA.URL, Follower: srvB.URL}}}

	events, _ := generate(t, "RunningExample", 400, 7)
	wire = make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = client.FromRun(ev)
	}
	g, err := wfreach.Compile(mustBuiltin(t, "RunningExample"))
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []*service.Registry{regA, regB} {
		s, err := reg.Create("moved", g, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(events[:200]); err != nil {
			t.Fatal(err)
		}
	}
	return regA, regB, srvA.Close, m, wire
}

func mustBuiltin(t *testing.T, name string) *wfreach.Spec {
	t.Helper()
	s, ok := service.Builtin(name)
	if !ok {
		t.Fatalf("no builtin %s", name)
	}
	return s
}

// TestClusterClientIngestNotReplayedOnFailover kills the primary
// mid-stream: the client must fail the in-flight ingest over to the
// promoted follower for routing purposes but NOT re-send the batch —
// the dead node may have applied and replicated it with only the
// response lost, so a replay would duplicate events. Reads do retry.
func TestClusterClientIngestNotReplayedOnFailover(t *testing.T) {
	_, regB, kill, m, wire := failoverFixture(t)
	cl, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kill()

	if _, err := cl.Ingest(ctx, "moved", wire[200:]); err == nil {
		t.Fatal("ingest into a dead primary reported success")
	}
	s, ok := regB.Get("moved")
	if !ok {
		t.Fatal("follower lost the session")
	}
	if got := s.Vertices(); got != 200 {
		t.Fatalf("follower has %d events after failed ingest, want 200 (no replay)", got)
	}
	// The failover healed the client: reads now serve from the
	// follower without touching the dead URL.
	st, err := cl.Session(ctx, "moved")
	if err != nil || st.Vertices != 200 {
		t.Fatalf("read after failover: %+v, %v", st, err)
	}
}

// TestClusterClientReadRetriesAcrossFailover is the counterpart: a
// read in flight when the primary dies is replayed on the follower
// transparently (reads are idempotent).
func TestClusterClientReadRetriesAcrossFailover(t *testing.T) {
	_, _, kill, m, _ := failoverFixture(t)
	cl, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	kill()
	st, err := cl.Session(context.Background(), "moved")
	if err != nil || st.Vertices != 200 {
		t.Fatalf("read across failover: %+v, %v", st, err)
	}
}

// TestClusterClientCancelIsNotFailover checks a cancelled context is
// treated as the caller giving up, not as a dead node: the error
// surfaces as the context's, and the client keeps routing to the
// (alive) primary afterwards.
func TestClusterClientCancelIsNotFailover(t *testing.T) {
	_, _, _, m, wire := failoverFixture(t)
	cl, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Make the primary distinguishable from the follower stand-in: it
	// alone gets events past the replicated prefix.
	if _, err := cl.Ingest(ctx, "moved", wire[200:250]); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cl.Session(cancelled, "moved"); !errors.Is(err, context.Canceled) {
		t.Fatalf("call with cancelled context: %v, want context.Canceled", err)
	}
	// Still routed to the primary (alive), not failed over.
	st, err := cl.Session(ctx, "moved")
	if err != nil || st.Vertices != 250 {
		t.Fatalf("read after cancelled call: %+v, %v (want primary's 250 events)", st, err)
	}
}

// TestClusterClientRejectsBadMap checks constructor validation.
func TestClusterClientRejectsBadMap(t *testing.T) {
	if _, err := client.NewCluster(client.ClusterMap{}); err == nil {
		t.Error("empty map accepted")
	}
	m := client.ClusterMap{Nodes: []client.ClusterNode{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}}
	if _, err := client.NewCluster(m); err == nil {
		t.Error("duplicate node names accepted")
	}
}
