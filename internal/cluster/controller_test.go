package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/cluster"
	"wfreach/internal/gen"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// node is one test cluster member: a durable registry under dir, its
// HTTP server, and the controller gating it.
type node struct {
	name string
	dir  string
	reg  *service.Registry
	srv  *httptest.Server
	ctl  *cluster.Controller
}

// newCluster spins up n single-process durable nodes named "n0".."n"
// and installs a controller on each. The prober is not started — tests
// drive map exchange explicitly through moves.
func newCluster(t *testing.T, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	for i := range nodes {
		dir := t.TempDir()
		reg := newRegistry(t, dir)
		srv := httptest.NewServer(service.NewHandler(reg))
		t.Cleanup(srv.Close)
		nodes[i] = &node{name: fmt.Sprintf("n%d", i), dir: dir, reg: reg, srv: srv}
	}
	for _, nd := range nodes {
		newController(t, nd, nodes)
	}
	return nodes
}

// newRegistry opens a registry over dir, closed when the test ends.
func newRegistry(t *testing.T, dir string) *service.Registry {
	t.Helper()
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reg.Close() })
	return reg
}

// newController installs a fresh controller on the node, built from the
// static map of the cluster's live URLs — what a node runs at start-up,
// and after a restart until gossip reaches it.
func newController(t *testing.T, nd *node, nodes []*node) {
	t.Helper()
	m := api.ClusterMap{Version: 1}
	for _, n := range nodes {
		m.Nodes = append(m.Nodes, api.ClusterNode{Name: n.name, URL: n.srv.URL})
	}
	ctl, err := cluster.New(nd.name, m, nd.reg, testLog(t))
	if err != nil {
		t.Fatal(err)
	}
	nd.ctl = ctl
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

// byName returns the cluster member with the given node name.
func byName(t *testing.T, nodes []*node, name string) *node {
	t.Helper()
	for _, nd := range nodes {
		if nd.name == name {
			return nd
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

// sessionOwnedBy finds a session name the map places on the node.
func sessionOwnedBy(t *testing.T, ctl *cluster.Controller, node string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("sess-%d", i)
		if ctl.State().Place(s).Name == node {
			return s
		}
	}
	t.Fatalf("no session hashes to node %q", node)
	return ""
}

// createWithEvents builds the session on the registry and generates
// its event stream (not yet ingested).
func createWithEvents(t *testing.T, reg *service.Registry, name string, size int) (*service.Session, []run.Event) {
	t.Helper()
	g := spec.MustCompile(wfspecs.RunningExample())
	s, err := reg.Create(name, g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return s, events
}

// getStatus GETs the URL and returns the status code plus, for error
// responses, the decoded structured error.
func getStatus(t *testing.T, url string) (int, *api.Error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
		return resp.StatusCode, nil
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Err == nil {
		t.Fatalf("GET %s: status %d with undecodable error body (%v)", url, resp.StatusCode, err)
	}
	return resp.StatusCode, er.Err
}

// TestClusterGating checks the placement gate end to end over HTTP:
// the owner serves, every other node answers wrong_node naming the
// owner, and the control-plane routes respond.
func TestClusterGating(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner, other := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s, events := createWithEvents(t, owner.reg, sess, 100)
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}

	if code, _ := getStatus(t, owner.srv.URL+"/v1/sessions/"+sess); code != http.StatusOK {
		t.Fatalf("owner read: %d", code)
	}
	code, aerr := getStatus(t, other.srv.URL+"/v1/sessions/"+sess)
	if code != http.StatusMisdirectedRequest || aerr.Code != api.CodeWrongNode {
		t.Fatalf("non-owner read: %d %+v", code, aerr)
	}
	if u, ok := api.RedirectFromError(aerr); !ok || u != owner.srv.URL {
		t.Fatalf("wrong_node detail %q, want owner URL %q", aerr.Detail, owner.srv.URL)
	}
	// Creates are gated too: the non-owner refuses to create a
	// session it does not own.
	body := bytes.NewBufferString(`{"name": "` + sess + `", "builtin": "RunningExample"}`)
	resp, err := http.Post(other.srv.URL+"/v1/sessions", api.ContentTypeJSON, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("non-owner create: %d", resp.StatusCode)
	}

	var m api.ClusterMap
	mustGetJSON(t, other.srv.URL+"/v1/cluster/map", &m)
	if m.Version != 1 || len(m.Nodes) != 2 {
		t.Fatalf("cluster map %+v", m)
	}
	var h api.ClusterHealth
	mustGetJSON(t, owner.srv.URL+"/v1/cluster/health", &h)
	if h.Node != "n0" || h.Role != api.RolePrimary || len(h.Peers) != 1 || h.Peers[0].Name != "n1" {
		t.Fatalf("cluster health %+v", h)
	}
}

// TestClusterRoutesRequireClusterMode checks the control plane
// answers not_clustered on a plain server.
func TestClusterRoutesRequireClusterMode(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(newRegistry(t, t.TempDir())))
	defer srv.Close()
	code, aerr := getStatus(t, srv.URL+"/v1/cluster/map")
	if code != http.StatusConflict || aerr.Code != api.CodeNotClustered {
		t.Fatalf("map on plain server: %d %+v", code, aerr)
	}
}

// TestMoveLive moves a session between nodes while a writer is
// ingesting: every event accepted by either owner must be on the new
// owner afterwards, the old owner must seal against further writes,
// and placement must flip on both nodes.
func TestMoveLive(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner, target := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s, events := createWithEvents(t, owner.reg, sess, 4000)
	// The writer streams the prefix; the suffix is reserved for
	// post-move appends on the new owner.
	stream, spare := events[:len(events)-100], events[len(events)-100:]

	// Writer: append in small batches until sealed. The seal check
	// runs under the ingest lock at batch start, so a batch either
	// fully lands or is fully rejected — accepted is exact.
	accepted := make(chan int, 1)
	go func() {
		n := 0
		for n < len(stream) {
			b := stream[n:]
			if len(b) > 50 {
				b = b[:50]
			}
			if _, err := s.Append(b); err != nil {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeReadOnly {
					t.Errorf("writer: %v", err)
				}
				break
			}
			n += len(b)
		}
		accepted <- n
	}()

	// Wait until a few batches have landed so the move genuinely
	// overlaps live writes.
	deadline := time.Now().Add(5 * time.Second)
	for s.Vertices() < 200 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := target.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	n := <-accepted
	if resp.From != "n0" || resp.To != "n1" {
		t.Fatalf("move response %+v", resp)
	}
	if n == 0 {
		t.Fatal("writer landed nothing before the move — test proves nothing")
	}

	// The new owner has every accepted event. (The move's own Events
	// snapshot may predate the writer's last sealed-out batch only if
	// the seal lost a race — it must not.)
	moved, ok := target.reg.Get(sess)
	if !ok {
		t.Fatal("target has no copy")
	}
	if got := moved.Vertices(); got != int64(n) {
		t.Fatalf("target applied %d events, writer landed %d", got, n)
	}
	if resp.Events != int64(n) {
		t.Fatalf("move reported %d events, writer landed %d", resp.Events, n)
	}

	// Both nodes now place the session on n1.
	for _, nd := range nodes {
		if got := nd.ctl.State().Place(sess).Name; got != "n1" {
			t.Errorf("%s places %q on %s after move", nd.name, sess, got)
		}
	}

	// Everything the writer did not land, plus the reserved suffix,
	// continues on the new owner.
	remaining := append(append([]run.Event(nil), stream[n:]...), spare...)

	// The old owner's copy is sealed: direct appends bounce with
	// read_only naming the new owner (rejected before application, so
	// the event is free to land on the new owner below)...
	_, err = s.Append(remaining[:1])
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeReadOnly || ae.Detail != target.srv.URL {
		t.Fatalf("append on sealed copy: %v", err)
	}
	// ...and so do HTTP writes, while stale reads still serve.
	if code, _ := getStatus(t, owner.srv.URL+"/v1/sessions/"+sess); code != http.StatusOK {
		t.Errorf("stale read on old owner: %d", code)
	}

	// The new owner accepts writes; the stream completes there.
	if _, err := moved.Append(remaining); err != nil {
		t.Fatalf("append on new owner: %v", err)
	}
	if got := moved.Vertices(); got != int64(len(events)) {
		t.Fatalf("after completing on new owner: %d vertices, want %d", got, len(events))
	}

	// Identity move: already owned and present — immediate success.
	again, err := target.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"})
	if err != nil || again.From != "n1" || again.To != "n1" {
		t.Fatalf("identity move: %+v, %v", again, err)
	}
}

// TestMoveBackToFormerOwner moves a session away and back again: the
// former owner's retained copy was sealed by the first move, so the
// move-back must reopen it, replay everything the interim owner
// ingested, and leave the session writable on the original node (and
// sealed on the other) — not deadlocked with both copies sealed.
func TestMoveBackToFormerOwner(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	n0, n1 := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s0, events := createWithEvents(t, n0.reg, sess, 600)
	a, b := len(events)/3, 2*len(events)/3
	if _, err := s0.Append(events[:a]); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := n1.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"}); err != nil {
		t.Fatal(err)
	}
	s1, ok := n1.reg.Get(sess)
	if !ok {
		t.Fatal("no copy on n1 after first move")
	}
	// The interim owner ingests the middle third; the move-back must
	// carry it into n0's retained copy.
	if _, err := s1.Append(events[a:b]); err != nil {
		t.Fatal(err)
	}
	resp, err := n0.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n0"})
	if err != nil {
		t.Fatalf("move back: %v", err)
	}
	if resp.From != "n1" || resp.To != "n0" || resp.Events != int64(b) {
		t.Fatalf("move-back response %+v, want n1→n0 with %d events", resp, b)
	}
	for _, nd := range nodes {
		if got := nd.ctl.State().Place(sess).Name; got != "n0" {
			t.Errorf("%s places %q on %s after move-back", nd.name, sess, got)
		}
	}
	// The original owner serves writes again; the interim owner's copy
	// is now the sealed one.
	if _, err := s0.Append(events[b:]); err != nil {
		t.Fatalf("append on returned owner: %v", err)
	}
	if got := s0.Vertices(); got != int64(len(events)) {
		t.Fatalf("returned owner has %d events, want %d", got, len(events))
	}
	var ae *api.Error
	if _, err := s1.Append(events[b : b+1]); !errors.As(err, &ae) || ae.Code != api.CodeReadOnly {
		t.Fatalf("append on interim owner's retained copy: %v, want read_only", err)
	}
}

// TestMoveResumesInterruptedDrain simulates a move that died between
// the owner's release and the end of the drain: the override (with the
// sealed final sequence) is already installed and gossiping, the
// target's copy is behind. A retried move must not report success off
// the behind copy — it must resume the drain to the recorded seal.
func TestMoveResumesInterruptedDrain(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	n0, n1 := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s0, events := createWithEvents(t, n0.reg, sess, 400)
	half := len(events) / 2
	for _, batch := range [][]run.Event{events[:half], events[half:]} {
		if _, err := s0.Append(batch); err != nil {
			t.Fatal(err)
		}
	}

	// Half-replicated copy on the target, identity shared — what an
	// interrupted catch-up leaves behind: a copy applies whole frames,
	// and labeling is deterministic, so replaying the first batch
	// builds the identical copy.
	g := spec.MustCompile(wfspecs.RunningExample())
	s1, err := n1.reg.Create(sess, g, service.Config{ID: s0.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Append(events[:half]); err != nil {
		t.Fatal(err)
	}

	// The owner released (seal + override), then the target crashed
	// before draining; the override still reaches the target by gossip.
	ctx := context.Background()
	rel, err := n0.ctl.Release(ctx, api.ReleaseRequest{Session: sess, Node: "n1", URL: n1.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rel.FinalSeq != int64(len(events)) {
		t.Fatalf("release sealed at %d, want %d", rel.FinalSeq, len(events))
	}
	if _, err := n1.ctl.State().Merge(rel.Map); err != nil {
		t.Fatal(err)
	}

	// While behind the seal the target must not accept writes — a
	// stray batch would interleave with the undrained suffix and fork
	// the copy from the owner's log.
	var ae *api.Error
	if err := n1.ctl.Route(sess, true); !errors.As(err, &ae) || ae.Code != api.CodeReadOnly {
		t.Fatalf("write route to behind copy: %v, want read_only", err)
	}
	if err := n1.ctl.Route(sess, false); err != nil {
		t.Fatalf("read route to behind copy: %v, want served", err)
	}

	// The retried move lands in the "already placed here" branch and
	// must finish the drain rather than trust the behind copy.
	resp, err := n1.ctl.Move(ctx, api.MoveRequest{Session: sess, Target: "n1"})
	if err != nil {
		t.Fatalf("resumed move: %v", err)
	}
	if resp.Events != int64(len(events)) || s1.Vertices() != int64(len(events)) {
		t.Fatalf("resumed move drained to %d (response %d), want %d", s1.Vertices(), resp.Events, len(events))
	}
	if err := n1.ctl.Route(sess, true); err != nil {
		t.Fatalf("write route after drain: %v, want served", err)
	}

	// Same interruption with no local copy at all (crash before the
	// durable adopt): this time nobody retries the move — the target's
	// own prober must notice and resume the drain.
	sess2 := ""
	for i := 0; ; i++ {
		s := fmt.Sprintf("other-%d", i)
		if nodes[0].ctl.State().Place(s).Name == "n0" && s != sess {
			sess2 = s
			break
		}
	}
	s2, events2 := createWithEvents(t, n0.reg, sess2, 200)
	if _, err := s2.Append(events2); err != nil {
		t.Fatal(err)
	}
	rel2, err := n0.ctl.Release(ctx, api.ReleaseRequest{Session: sess2, Node: "n1", URL: n1.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.ctl.State().Merge(rel2.Map); err != nil {
		t.Fatal(err)
	}
	n1.ctl.Start()
	defer n1.ctl.Close()
	// Writes open once the prober has drained, verified and completed.
	deadline := time.Now().Add(5 * time.Second)
	for n1.ctl.Route(sess2, true) != nil {
		if time.Now().After(deadline) {
			t.Fatal("prober never resumed the interrupted move")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s2b, ok := n1.reg.Get(sess2); !ok || s2b.Vertices() != int64(len(events2)) {
		t.Fatalf("the prober-resumed move left the copy short of %d events", len(events2))
	}
}

// TestMoveForwarded checks POSTing a move to a non-target node
// forwards it to the target, and the forwarder adopts the new map.
func TestMoveForwarded(t *testing.T) {
	nodes := newCluster(t, 3)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner := byName(t, nodes, "n0")
	s, events := createWithEvents(t, owner.reg, sess, 300)
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}

	// POST the move to n2 — neither owner nor target.
	forwarder := byName(t, nodes, "n2")
	payload, _ := json.Marshal(api.MoveRequest{Session: sess, Target: "n1"})
	resp, err := http.Post(forwarder.srv.URL+"/v1/cluster/move", api.ContentTypeJSON, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mv api.MoveResponse
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded move: %d, %v", resp.StatusCode, err)
	}
	if mv.From != "n0" || mv.To != "n1" || mv.Events != int64(len(events)) {
		t.Fatalf("forwarded move response %+v (ingested %d)", mv, len(events))
	}
	// The forwarder learned the override from the response; the third
	// party that saw nothing (n0 did, it released) is the prober's
	// job, exercised in TestProbeSpreadsOverrides.
	if got := forwarder.ctl.State().Place(sess).Name; got != "n1" {
		t.Errorf("forwarder places %q on %s, want n1", sess, got)
	}

	// Moving an unknown session fails cleanly.
	_, err = byName(t, nodes, "n1").ctl.Move(context.Background(),
		api.MoveRequest{Session: "never-created-xyz", Target: "n1"})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("move of unknown session: %v", err)
	}
}

// TestProbeSpreadsOverrides checks the prober carries overrides to
// nodes that did not participate in a move.
func TestProbeSpreadsOverrides(t *testing.T) {
	nodes := newCluster(t, 3)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner := byName(t, nodes, "n0")
	s, events := createWithEvents(t, owner.reg, sess, 100)
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	target := byName(t, nodes, "n1")
	if _, err := target.ctl.Move(context.Background(), api.MoveRequest{Session: sess, Target: "n1"}); err != nil {
		t.Fatal(err)
	}
	bystander := byName(t, nodes, "n2")
	if got := bystander.ctl.State().Place(sess).Name; got != "n0" {
		t.Fatalf("bystander already knows (%s) — probe test is vacuous", got)
	}
	bystander.ctl.Start()
	defer bystander.ctl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for bystander.ctl.State().Place(sess).Name != "n1" {
		if time.Now().After(deadline) {
			t.Fatal("probe never spread the override")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeleteForgetsOverride checks deleting a moved session drops its
// override so the name's placement reverts to the ring.
func TestDeleteForgetsOverride(t *testing.T) {
	nodes := newCluster(t, 2)
	sess := sessionOwnedBy(t, nodes[0].ctl, "n0")
	owner, target := byName(t, nodes, "n0"), byName(t, nodes, "n1")
	s, events := createWithEvents(t, owner.reg, sess, 50)
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	if _, err := target.ctl.Move(context.Background(), api.MoveRequest{Session: sess, Target: "n1"}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, target.srv.URL+"/v1/sessions/"+sess, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete on new owner: %d", resp.StatusCode)
	}
	if got := target.ctl.State().Place(sess).Name; got != "n0" {
		t.Errorf("placement after delete %s, want ring placement n0", got)
	}
}

func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(url, "/map") {
		// Sanity: the wire map must round-trip through validation.
		if m, ok := out.(*api.ClusterMap); ok {
			if err := m.Validate(); err != nil {
				t.Fatalf("served map invalid: %v", err)
			}
		}
	}
}
