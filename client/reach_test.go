package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"wfreach"
	"wfreach/client"
	"wfreach/internal/api"
)

// reachFixture is a BioAID stream of which the first published events
// are in the session under test, and pairs over it: mostly published
// vertices, now and then one not ingested yet, negative, or unseen.
type reachFixture struct {
	events    []wfreach.Event
	wire      []client.Event
	run       *wfreach.Run
	published int
	isIn      map[int32]bool
}

func newReachFixture(t *testing.T, size int, seed int64) *reachFixture {
	t.Helper()
	events, r := generate(t, "BioAID", size, seed)
	f := &reachFixture{events: events, run: r, published: len(events) * 7 / 10, isIn: map[int32]bool{}}
	for i, ev := range events {
		f.wire = append(f.wire, wfreach.ToWire(ev))
		if i < f.published {
			f.isIn[int32(ev.V)] = true
		}
	}
	return f
}

func (f *reachFixture) pairs(rng *rand.Rand, n int) []client.ReachPair {
	vertex := func() int32 {
		switch rng.Intn(15) {
		case 0:
			return int32(f.events[f.published+rng.Intn(len(f.events)-f.published)].V)
		case 1:
			return -1 - rng.Int31n(1000)
		case 2:
			return 1<<30 + rng.Int31n(1000)
		}
		return int32(f.events[rng.Intn(f.published)].V)
	}
	pairs := make([]client.ReachPair, n)
	for i := range pairs {
		pairs[i] = client.ReachPair{From: vertex(), To: vertex()}
	}
	return pairs
}

// check holds answers against breadth-first search on the run: a pair
// of published vertices is answered and right, any other is an inline
// vertex_not_labeled with its message.
func (f *reachFixture) check(t *testing.T, route string, pairs []client.ReachPair, answers []client.ReachAnswer) {
	t.Helper()
	if len(answers) != len(pairs) {
		t.Fatalf("%s: %d answers for %d pairs", route, len(answers), len(pairs))
	}
	for i, a := range answers {
		if a.From != pairs[i].From || a.To != pairs[i].To {
			t.Fatalf("%s: answer %d is for (%d,%d), asked (%d,%d)", route, i, a.From, a.To, pairs[i].From, pairs[i].To)
		}
		if f.isIn[a.From] && f.isIn[a.To] {
			if want := f.run.Reaches(wfreach.VertexID(a.From), wfreach.VertexID(a.To)); a.Code != "" || a.Reachable != want {
				t.Fatalf("%s: pair %d = %+v, breadth-first search says %v", route, i, a, want)
			}
		} else if a.Code != client.CodeVertexNotLabeled || a.Reachable || !strings.Contains(a.Error, "not labeled yet") {
			t.Fatalf("%s: pair %d = %+v, want an inline vertex_not_labeled", route, i, a)
		}
	}
}

// jsonReach asks the same pairs over the JSON form of the route, the
// way curl would.
func jsonReach(t *testing.T, base, session string, pairs []client.ReachPair) []client.ReachAnswer {
	t.Helper()
	body, err := json.Marshal(api.BatchReachRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+session+"/reach", api.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.BatchReachResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON reach: %d %v", resp.StatusCode, err)
	}
	return out.Results
}

// cannedReach is a transport that answers every request with a 200
// carrying bytes prepared beforehand: a test chooses what the SDK has to
// decode, and what a call allocates is net/http's client (constant per
// request) and the SDK.
type cannedReach struct{ body []byte }

func (c cannedReach) RoundTrip(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {api.ContentTypeReach}},
		Body:          io.NopCloser(bytes.NewReader(c.body)),
		ContentLength: int64(len(c.body)),
		Request:       req,
	}, nil
}

var reachBatchSizes = []int{0, 1, 63, 64, 65, api.MaxReachPairs}

// TestReachBatchThroughAFollower: the SDK's binary ReachBatch gives the
// same answers — failures' codes and messages included — from a
// primary, from a follower tailing it, over the JSON form and from
// Session.ReachBatch in process, and they are breadth-first search's.
// A batch past the cap is the typed bad_request from either server.
func TestReachBatchThroughAFollower(t *testing.T) {
	p, fo := replicationPair(t)
	ctx := context.Background()
	pc, fc := client.New(p.srv.URL), client.New(fo.srv.URL)
	f := newReachFixture(t, 2500, 8)
	if _, err := pc.CreateSession(ctx, client.CreateSessionRequest{Name: "r", Builtin: "BioAID"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.IngestFrames(ctx, "r", f.wire[:f.published]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if st, err := fc.Session(ctx, "r"); err == nil && st.Vertices == int64(f.published) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower never caught up")
		}
	}
	sess, _ := p.reg.Get("r")
	rng := rand.New(rand.NewSource(5))
	for _, n := range reachBatchSizes {
		pairs := f.pairs(rng, n)
		want := sess.ReachBatch(pairs)
		f.check(t, "in process", pairs, want)
		for route, ask := range map[string]func() ([]client.ReachAnswer, error){
			"primary":        func() ([]client.ReachAnswer, error) { return pc.ReachBatch(ctx, "r", pairs) },
			"follower":       func() ([]client.ReachAnswer, error) { return fc.ReachBatch(ctx, "r", pairs) },
			"follower, JSON": func() ([]client.ReachAnswer, error) { return jsonReach(t, fo.srv.URL, "r", pairs), nil },
		} {
			got, err := ask()
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%d pairs via the %s: %v; answers differ from Session.ReachBatch", n, route, err)
			}
		}
	}
	for route, c := range map[string]*client.Client{"primary": pc, "follower": fc} {
		_, err := c.ReachBatch(ctx, "r", f.pairs(rng, api.MaxReachPairs+1))
		var ae *client.Error
		if !errors.As(err, &ae) || ae.Code != client.CodeBadRequest || ae.HTTPStatus != 400 || !strings.Contains(ae.Message, "4096-pair cap") {
			t.Fatalf("a batch past the cap via the %s: %v", route, err)
		}
	}
	if ok, err := fc.Reach(ctx, "r", -4, 0); err == nil || ok || !strings.Contains(err.Error(), "vertex_not_labeled: vertex -4 not labeled yet") {
		t.Fatalf("Reach(-4, 0) via the follower: %v, %v", ok, err)
	}
}

// TestReachBatchThroughTheClusterClient: the same through client.Cluster
// on three nodes — every session answered by its owner, equal to the
// owner's Session.ReachBatch and to breadth-first search; and a plain
// client that asks the wrong node still gets the typed wrong_node
// naming the owner, because request-level errors stay JSON.
func TestReachBatchThroughTheClusterClient(t *testing.T) {
	regs, _, m := newTestCluster(t, 3)
	cl, err := client.NewCluster(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := newReachFixture(t, 1500, 9)
	rng := rand.New(rand.NewSource(6))
	for i := range 4 {
		name := fmt.Sprintf("s%d", i)
		if _, err := cl.CreateSession(ctx, client.CreateSessionRequest{Name: name, Builtin: "BioAID"}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.IngestFrames(ctx, name, f.wire[:f.published]); err != nil {
			t.Fatal(err)
		}
		owner := nodeIndex(cl.Owner(name))
		sess, ok := regs[owner].Get(name)
		if !ok {
			t.Fatalf("%s is not on its owner n%d", name, owner)
		}
		for _, n := range reachBatchSizes {
			pairs := f.pairs(rng, n)
			got, err := cl.ReachBatch(ctx, name, pairs)
			if err != nil {
				t.Fatalf("%s: %d pairs: %v", name, n, err)
			}
			f.check(t, name+" via the cluster client", pairs, got)
			if !slices.Equal(got, sess.ReachBatch(pairs)) {
				t.Fatalf("%s: %d pairs: the cluster client and the owner's Session.ReachBatch differ", name, n)
			}
		}
		other := m.Nodes[(owner+1)%len(m.Nodes)]
		_, err := client.New(other.URL).ReachBatch(ctx, name, f.pairs(rng, 3))
		if got, ok := api.OwnerFromError(err); !ok || got != m.Nodes[owner].URL {
			t.Fatalf("%s asked of %s: %v, want wrong_node naming %s", name, other.Name, err, m.Nodes[owner].URL)
		}
	}
}

// TestReachBatchRefusesAForgedResponse: the SDK never trusts the
// server's bytes. A 200 that is not a well-formed binary response for
// the pairs that were sent is a plain error, not a panic and not a
// short answer slice.
func TestReachBatchRefusesAForgedResponse(t *testing.T) {
	pairs := []client.ReachPair{{From: 1, To: 2}, {From: 3, To: 4}, {From: 5, To: 6}}
	for name, body := range map[string][]byte{
		"empty":                 nil,
		"answers for two pairs": {2, 0x01, 0},
		"padding bits":          {3, 0xf9, 0},
		"forged failure count":  {3, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"failure index past n":  {3, 0x01, 1, 3, 1, 'c', 0},
		"trailing bytes":        {3, 0x01, 0, 0},
		"the JSON form":         []byte(`{"results":[]}`),
	} {
		c := client.New("http://forged", client.WithRetry(0, 0),
			client.WithHTTPClient(&http.Client{Transport: cannedReach{body}}))
		answers, err := c.ReachBatch(context.Background(), "s", pairs)
		var ae *client.Error
		if err == nil || answers != nil || errors.As(err, &ae) {
			t.Errorf("%s: %v, %v — want a plain error and no answers", name, answers, err)
		}
	}
	c := client.New("http://forged", client.WithHTTPClient(&http.Client{Transport: cannedReach{[]byte{3, 0x05, 0}}}))
	answers, err := c.ReachBatch(context.Background(), "s", pairs)
	if err != nil || len(answers) != 3 || !answers[0].Reachable || answers[1].Reachable || !answers[2].Reachable {
		t.Fatalf("a well-formed response: %+v, %v", answers, err)
	}
}
