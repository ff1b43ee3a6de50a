package main

import (
	"fmt"
	"math/rand"
	"slices"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

const (
	// batchEvents is the ingest batch: events per acked request.
	batchEvents = 256
	// pairsPerRequest is the reach batch: pairs per request.
	pairsPerRequest = 64
	// verifyRequests × pairsPerRequest is the verification set every
	// workload answers through its own call path after the timed rounds.
	verifyRequests = 64
)

// subSeed derives the k-th independent seed of a run from --seed, so
// each generated input (run, pair set, …) has its own stream.
func subSeed(seed int64, k int) int64 {
	return int64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + 1)
}

// stream is one session's worth of input: a grammar, an execution of it
// in topological order, the wire form of that execution, and the run
// graph the oracle answers from.
type stream struct {
	builtin string // service.Builtin name of the specification
	g       *spec.Grammar
	events  []run.Event
	wire    []api.Event
	graph   *graph.Graph
	pos     []int32 // pos[v]: index of v's event, -1 for vertices with none

	// Label facts from labeling the stream once in set-up with the same
	// public labeler and codec a session uses.
	labelBytes   []int // encoded length per event
	labelEntries int   // Σ Label.Len
	labelBitsMax int   // max Codec.BitLen — the paper's headline quantity
}

// bioaidStream generates a BioAID execution of about size events.
//
// MaxCopies caps every loop/fork expansion. Uncapped, the generator's
// first few draws decide how many copies the outermost loops get and
// with that the whole run's shape, so mean label length differs by ~1%
// from seed to seed; capped, size has to come from many small draws and
// the shape is self-averaging (0.05% across seeds). The cap is the
// smallest power of two under which the generator reaches size.
func bioaidStream(seed int64, size int) (*stream, error) {
	sp, _ := service.Builtin("BioAID")
	g, err := spec.Compile(sp)
	if err != nil {
		return nil, err
	}
	maxCopies := 64
	for c := 100_000; c < size; c *= 2 {
		maxCopies *= 2
	}
	evs, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: seed, MaxCopies: maxCopies})
	if err != nil {
		return nil, err
	}
	return newStream("BioAID", g, evs, r)
}

// agentStream generates one LLM-agent execution (deep linear recursion,
// so labels run ~2.4× longer than BioAID's) of about size events.
func agentStream(seed int64, size int) (*stream, error) {
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: size, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newStream("Agent", tr.Run.Grammar, tr.Events, tr.Run)
}

func newStream(builtin string, g *spec.Grammar, evs []run.Event, r *run.Run) (*stream, error) {
	s := &stream{builtin: builtin, g: g, events: evs, graph: r.Graph}
	s.wire = make([]api.Event, len(evs))
	s.pos = make([]int32, r.Graph.NumVertices())
	for i := range s.pos {
		s.pos[i] = -1
	}
	lab := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	codec := label.NewCodec(g)
	s.labelBytes = make([]int, len(evs))
	for i, ev := range evs {
		s.wire[i] = api.FromRun(ev)
		s.pos[ev.V] = int32(i)
		l, err := lab.Insert(ev)
		if err != nil {
			return nil, fmt.Errorf("label generated event %d: %w", i, err)
		}
		s.labelBytes[i] = len(codec.Encode(l))
		s.labelEntries += l.Len()
		s.labelBitsMax = max(s.labelBitsMax, codec.BitLen(l))
	}
	return s, nil
}

// query is one reach request with the answers BFS gives.
type query struct {
	pairs []api.ReachPair
	want  []bool
}

// lineageQuery is one lineage page request with the page BFS gives.
type lineageQuery struct {
	of        graph.VertexID
	limit     int
	want      []graph.VertexID // first limit ancestors, ascending
	more      bool
	ancestors int // size of the full closure
}

// oracle answers reachability on a stream's run graph by breadth-first
// search over internal/graph adjacency. All of its cost is paid in
// set-up: the timed rounds only compare booleans.
type oracle struct {
	s     *stream
	stamp []int32 // stamp[v] == cur: v is in the current closure
	cur   int32
	queue []graph.VertexID
}

func newOracle(s *stream) *oracle {
	return &oracle{s: s, stamp: make([]int32, s.graph.NumVertices())}
}

// closure marks and returns every vertex among the first published
// events that v reaches (back: that reaches v), v included. Events are
// in topological order, so a path between two published vertices never
// leaves the published prefix and the search may stop at its edge.
func (o *oracle) closure(v graph.VertexID, published int, back bool) []graph.VertexID {
	o.cur++
	o.queue = append(o.queue[:0], v)
	o.stamp[v] = o.cur
	for i := 0; i < len(o.queue); i++ {
		next := o.s.graph.Out(o.queue[i])
		if back {
			next = o.s.graph.In(o.queue[i])
		}
		for _, w := range next {
			if p := o.s.pos[w]; p < 0 || int(p) >= published || o.stamp[w] == o.cur {
				continue
			}
			o.stamp[w] = o.cur
			o.queue = append(o.queue, w)
		}
	}
	return o.queue
}

func (o *oracle) has(w graph.VertexID) bool { return o.stamp[w] == o.cur }

// queries builds n reach requests over the first published events. Each
// request has one anchor vertex and asks both orders: half its pairs
// run anchor→w, half w→anchor; within each half, half the partners are
// drawn from the anchor's closure (reachable) and half uniformly
// (mostly not), so both answers and both argument orders are covered.
func (o *oracle) queries(rng *rand.Rand, published, n int) []query {
	evs := o.s.events[:published]
	out := make([]query, n)
	for i := range out {
		q := query{
			pairs: make([]api.ReachPair, 0, pairsPerRequest),
			want:  make([]bool, 0, pairsPerRequest),
		}
		a := evs[rng.Intn(published)].V
		for _, back := range []bool{false, true} {
			reached := o.closure(a, published, back)
			for k := 0; k < pairsPerRequest/2; k++ {
				w := evs[rng.Intn(published)].V
				if k%2 == 0 {
					w = reached[rng.Intn(len(reached))]
				}
				p := api.ReachPair{From: int32(a), To: int32(w)}
				if back {
					p = api.ReachPair{From: int32(w), To: int32(a)}
				}
				q.pairs = append(q.pairs, p)
				q.want = append(q.want, o.has(w))
			}
		}
		out[i] = q
	}
	return out
}

// lineage builds the expected first page of the provenance closure of
// the vertex labeled by event index at.
func (o *oracle) lineage(at, limit int) lineageQuery {
	v := o.s.events[at].V
	anc := slices.Clone(o.closure(v, at+1, true))
	slices.Sort(anc)
	q := lineageQuery{of: v, limit: limit, ancestors: len(anc), want: anc}
	if len(anc) > limit {
		q.want, q.more = anc[:limit], true
	}
	return q
}

// check counts the answers that are errors or disagree with the oracle.
func (q *query) check(got []api.ReachAnswer) (failed int) {
	if len(got) != len(q.want) {
		return len(q.want)
	}
	for i, a := range got {
		if a.Code != "" || a.Reachable != q.want[i] {
			failed++
		}
	}
	return failed
}

// check reports whether a lineage page equals the oracle's.
func (q *lineageQuery) check(page []graph.VertexID, more bool) bool {
	return more == q.more && slices.Equal(page, q.want)
}

// checkWire is check for the HTTP form of a page.
func (q *lineageQuery) checkWire(page api.LineageResponse) bool {
	got := make([]graph.VertexID, len(page.Ancestors))
	for i, v := range page.Ancestors {
		got[i] = graph.VertexID(v)
	}
	return q.check(got, page.NextCursor != "")
}
