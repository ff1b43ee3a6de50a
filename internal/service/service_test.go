package service

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// lineage is v's whole provenance closure, as one page.
func lineage(s *Session, v graph.VertexID) ([]graph.VertexID, error) {
	anc, _, err := s.LineagePage(v, graph.None, math.MaxInt)
	return anc, err
}

func compileBuiltin(t testing.TB, name string) *spec.Grammar {
	t.Helper()
	s, ok := Builtin(name)
	if !ok {
		t.Fatalf("no builtin %q", name)
	}
	g, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func toNamed(r *run.Run, ev run.Event) core.NamedEvent {
	return core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds}
}

// namedWire is a named event's wire form.
func namedWire(ev core.NamedEvent) api.Event {
	w := api.Event{V: int32(ev.V), Name: ev.Name}
	for _, p := range ev.Preds {
		w.Preds = append(w.Preds, int32(p))
	}
	return w
}

func TestRegistryLifecycle(t *testing.T) {
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	g := compileBuiltin(t, "BioAID")
	cfg := Config{}

	if _, err := reg.Create("", g, cfg); err == nil {
		t.Fatal("empty name accepted")
	}
	s, err := reg.Create("a", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("a", g, cfg); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := reg.Create("b", g, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names() = %v", got)
	}
	if got, ok := reg.Get("a"); !ok || got != s {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	if !reg.Delete("a") || reg.Delete("a") {
		t.Fatal("Delete semantics wrong")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len() = %d", reg.Len())
	}
}

func TestSessionIngestAndQuery(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	s, err := reg.Create("run1", g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Querying before any ingest is an error, not a false.
	if _, err := s.Reach(events[0].V, events[1].V); err == nil {
		t.Fatal("query on empty session succeeded")
	}

	n, err := s.Append(events)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) || s.Vertices() != int64(len(events)) {
		t.Fatalf("applied %d of %d, vertices=%d", n, len(events), s.Vertices())
	}

	// Every pair agrees with ground truth on a sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := events[rng.Intn(len(events))].V
		w := events[rng.Intn(len(events))].V
		got, err := s.Reach(v, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Graph.Reaches(v, w); got != want {
			t.Fatalf("Reach(%d,%d) = %v, oracle %v", v, w, got, want)
		}
	}

	st := s.Stats()
	if st.Vertices != int64(len(events)) || st.Batches != 1 || st.LabelBits == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Class != "linear-recursive" || st.Skeleton != "TCL" {
		t.Fatalf("stats = %+v", st)
	}

	// Lineage of the sink contains the source.
	last := events[len(events)-1].V
	anc, err := lineage(s, last)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range anc {
		if v == events[0].V {
			found = true
		}
		if !r.Graph.Reaches(v, last) {
			t.Fatalf("lineage vertex %d does not reach %d", v, last)
		}
	}
	if !found {
		t.Fatal("source missing from sink lineage")
	}
}

func TestSessionPartialBatch(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	s, _ := reg.Create("p", g, Config{})

	// Corrupt the stream mid-batch: an unknown predecessor.
	bad := make([]run.Event, len(events))
	copy(bad, events)
	k := len(bad) / 2
	bad[k].Preds = []graph.VertexID{9999}
	n, err := s.Append(bad)
	if err == nil {
		t.Fatal("corrupt batch accepted")
	}
	if n != k {
		t.Fatalf("applied %d, want %d", n, k)
	}
	// The valid prefix is ingested and queryable.
	if s.Vertices() != int64(k) {
		t.Fatalf("vertices = %d, want %d", s.Vertices(), k)
	}
	if _, err := s.Reach(events[0].V, events[k-1].V); err != nil {
		t.Fatal(err)
	}
	// The rest of the original stream still applies cleanly.
	if _, err := s.Append(events[k:]); err != nil {
		t.Fatal(err)
	}
	if s.Vertices() != int64(len(events)) {
		t.Fatalf("vertices = %d, want %d", s.Vertices(), len(events))
	}
}

func TestSessionNamedIngest(t *testing.T) {
	// The running example satisfies the naming restrictions.
	g := compileBuiltin(t, "RunningExample")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	named := make([]core.NamedEvent, len(events))
	for i, ev := range events {
		named[i] = core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds}
	}
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	s, _ := reg.Create("n", g, Config{})
	if _, err := s.AppendNamed(named); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		v := events[rng.Intn(len(events))].V
		w := events[rng.Intn(len(events))].V
		got, err := s.Reach(v, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Graph.Reaches(v, w); got != want {
			t.Fatalf("Reach(%d,%d) = %v, oracle %v", v, w, got, want)
		}
	}
}

// TestNamedDuplicateVertexIsBadEvent: an interior named event that
// fits the stream but reuses a labeled vertex id used to panic inside
// the labeler with ingestMu held, wedging the session for good. It is
// a partial-batch error at its index — bad_event on the wire — and the
// next batch goes in.
func TestNamedDuplicateVertexIsBadEvent(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The first interior module past the start: its slot is open when
	// the batch reaches it, so only the vertex id is wrong.
	k := 0
	for i, ev := range events {
		gg := g.Spec().Graph(ev.Ref.Graph).G
		if i > 0 && ev.Ref.V != gg.Source() && ev.Ref.V != gg.Sink() {
			k = i
			break
		}
	}
	named := make([]core.NamedEvent, len(events))
	wire := make([]api.Event, len(events))
	for i, ev := range events {
		named[i] = toNamed(r, ev)
		wire[i] = namedWire(named[i])
	}
	dup := named[k]
	dup.V = events[0].V
	bad := append(append([]core.NamedEvent{}, named[:k]...), dup)

	s, _ := durableReg(t, t.TempDir(), DurableOptions{}).Create("n", g, Config{})
	if n, err := s.AppendNamed(bad); err == nil || n != k {
		t.Fatalf("AppendNamed = %d, %v; want %d applied and the duplicate refused", n, err, k)
	}
	if n, err := s.AppendNamed(named[k:]); err != nil || n != len(named)-k {
		t.Fatalf("batch after the refusal: %d, %v", n, err)
	}

	srv := newTestServer(t)
	doJSON(t, "POST", srv.URL+"/v1/sessions", api.CreateSessionRequest{Name: "n", Builtin: "BioAID"}, nil)
	badWire := append(append([]api.Event{}, wire[:k]...), namedWire(dup))
	code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/n/events", api.EventsRequest{Events: badWire}, nil)
	expectCode(t, 400, api.CodeBadEvent, code, raw)
	var resp api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || resp.Applied != k {
		t.Fatalf("applied = %s, want %d", raw, k)
	}
	var ok api.EventsResponse
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/n/events", api.EventsRequest{Events: wire[k:]}, &ok); code != 200 || ok.Vertices != int64(len(wire)) {
		t.Fatalf("batch after the refusal: %d %s", code, raw)
	}
}

// TestConcurrentIngestQuery is the concurrency contract test: one
// writer goroutine per session streams events in batches while many
// readers issue reachability queries over the completed prefix,
// asserting every answer matches the BFS ground-truth oracle. Because
// events arrive in topological order, all ancestors of an inserted
// vertex are already inserted, so prefix reachability equals
// final-graph reachability. Run with -race.
func TestConcurrentIngestQuery(t *testing.T) {
	const (
		sessions = 3
		readers  = 4
		batch    = 64
	)
	g := compileBuiltin(t, "BioAID")

	reg := durableReg(t, t.TempDir(), DurableOptions{})
	var wg sync.WaitGroup
	queries := new(atomic.Int64)
	for si := 0; si < sessions; si++ {
		events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 2000, Seed: int64(100 + si)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := reg.Create(string(rune('a'+si)), g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		watermark := new(atomic.Int64) // events ingested so far
		done := make(chan struct{})

		wg.Add(1)
		go func() { // single writer for this session
			defer wg.Done()
			defer close(done)
			for i := 0; i < len(events); i += batch {
				end := min(i+batch, len(events))
				if _, err := s.Append(events[i:end]); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				watermark.Store(int64(end))
			}
		}()

		for ri := 0; ri < readers; ri++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				// A fixed quota keeps readers querying after ingest
				// completes (the full prefix is still a valid prefix), so
				// the test verifies answers whether or not it wins the
				// race against the writer.
				for q := 0; q < 250; q++ {
					wm := watermark.Load()
					if wm < 2 {
						q--
						continue
					}
					v := events[rng.Int63n(wm)].V
					w := events[rng.Int63n(wm)].V
					got, err := s.Reach(v, w)
					if err != nil {
						t.Errorf("reach(%d,%d): %v", v, w, err)
						return
					}
					if want := r.Graph.Reaches(v, w); got != want {
						t.Errorf("reach(%d,%d) = %v, oracle %v", v, w, got, want)
						return
					}
					queries.Add(1)
				}
			}(int64(si*readers + ri))
		}
	}
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no concurrent queries executed")
	}
	t.Logf("%d concurrent queries verified against the oracle", queries.Load())
}

// TestDeleteRacesIngestAndQueries deletes a session while a writer is
// streaming batches into it and readers are querying it (run with
// -race). In-flight operations must finish normally — the session just
// stops being reachable by name — a batch that starts after the delete
// closed the session's log is refused as a durability failure, with
// every event applied before it still held, a query that starts after
// the delete is answered correctly or refused session_not_found, never
// anything else, and the name must be reusable immediately.
func TestDeleteRacesIngestAndQueries(t *testing.T) {
	g := compileBuiltin(t, "BioAID")
	events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: 1500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	reg := durableReg(t, t.TempDir(), DurableOptions{})
	s, err := reg.Create("doomed", g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const batch = 32
	watermark := new(atomic.Int64)
	applied := new(atomic.Int64)
	deleteAsked := new(atomic.Bool)
	deleted := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: appends until the delete closes the log
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(events); lo += batch {
			hi := min(lo+batch, len(events))
			n, err := s.Append(events[lo:hi])
			applied.Store(int64(lo + n))
			if err != nil {
				if !deleteAsked.Load() || !errors.Is(err, ErrDurability) {
					t.Errorf("append: %v", err)
				}
				return
			}
			watermark.Store(int64(hi))
		}
	}()

	for ri := 0; ri < 3; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 300; q++ {
				wm := watermark.Load()
				if wm < 2 {
					q--
					continue
				}
				v := events[rng.Int63n(wm)].V
				w := events[rng.Int63n(wm)].V
				got, err := s.Reach(v, w)
				if isDeleted(err) && deleteAsked.Load() { // set before Delete retires anything
					continue
				}
				if err != nil {
					t.Errorf("reach(%d,%d): %v", v, w, err)
					return
				}
				if want := r.Graph.Reaches(v, w); got != want {
					t.Errorf("reach(%d,%d)=%v, want %v", v, w, got, want)
					return
				}
			}
		}(int64(ri))
	}

	wg.Add(1)
	go func() { // deleter: fires mid-stream
		defer wg.Done()
		defer close(deleted)
		for watermark.Load() < 5*batch {
			select {
			case <-done:
				return // the writer died early; the test already failed
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		deleteAsked.Store(true)
		if !reg.Delete("doomed") {
			t.Error("Delete(doomed) = false")
		}
	}()

	<-deleted
	// The name is free for reuse the moment Delete returns, while the
	// old session object is still ingesting.
	if _, err := reg.Create("doomed", g, Config{}); err != nil {
		t.Fatalf("recreate during in-flight ingest: %v", err)
	}
	<-done
	wg.Wait()
	if s.Vertices() != applied.Load() {
		t.Fatalf("detached session holds %d events, %d were applied", s.Vertices(), applied.Load())
	}
}

func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok || s == nil {
			t.Fatalf("builtin %q missing", name)
		}
		if _, err := spec.Compile(s); err != nil {
			t.Fatalf("builtin %q does not compile: %v", name, err)
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Fatal("unknown builtin resolved")
	}
	// Builtins mirror wfspecs.
	if Builtin2, _ := Builtin("BioAID"); Builtin2.String() != wfspecs.BioAID().String() {
		t.Fatal("BioAID builtin diverges from wfspecs")
	}
}

// deepStream is a depth-first execution of the nonlinear LowerBound
// grammar: every recursion level nests one instance deeper, so label
// depth grows with the run and event deepAt is the first whose label
// needs more than label.MaxEntries entries.
func deepStream(t *testing.T) (g *spec.Grammar, events []run.Event, deepAt int) {
	t.Helper()
	g = compileBuiltin(t, "LowerBound")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 1000, Seed: 1, DepthFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	for i := range events {
		l, err := e.Insert(events[i])
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() > label.MaxEntries {
			return g, events, i
		}
	}
	t.Fatal("the stream never outgrows label.MaxEntries")
	return nil, nil, 0
}

// requireTooDeep checks the typed refusal of a label past MaxEntries.
func requireTooDeep(t *testing.T, err error) {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadEvent || !strings.Contains(ae.Message, "entries") {
		t.Fatalf("want a typed %s error about label entries, got %v", api.CodeBadEvent, err)
	}
}

// TestIngestRefusesLabelsPastMaxEntries: a label of 256 entries used to
// be stored with its count wrapped to 0 — an empty label that decoded
// without error and panicked the next query. The pipeline now fails the
// batch at that event with a typed error, before anything is encoded or
// logged: the prefix stays queryable, and ingest stays closed, since
// the labeler has moved past what the store can hold.
func TestIngestRefusesLabelsPastMaxEntries(t *testing.T) {
	g, events, deepAt := deepStream(t)
	for name, ingest := range map[string]func(s *Session, evs []run.Event) (int, error){
		"Append": func(s *Session, evs []run.Event) (int, error) { return s.Append(evs) },
		"AppendRecords": func(s *Session, evs []run.Event) (int, error) {
			recs := make([]wal.Record, len(evs))
			for i := range evs {
				recs[i] = wal.RefRecord(evs[i])
			}
			return s.AppendRecords(recs, nil)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := durableReg(t, t.TempDir(), DurableOptions{}).Create("deep", g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			lo := deepAt - 100
			if n, err := ingest(s, events[:lo]); err != nil || n != lo {
				t.Fatalf("prefix: applied %d: %v", n, err)
			}
			n, err := ingest(s, events[lo:])
			requireTooDeep(t, err)
			if n != deepAt-lo || s.Vertices() != int64(deepAt) {
				t.Fatalf("applied %d (session has %d vertices), want the batch to stop at event %d", n, s.Vertices(), deepAt)
			}
			if _, err := s.Reach(events[0].V, events[deepAt-1].V); err != nil {
				t.Fatalf("prefix not queryable: %v", err)
			}
			if _, err := s.Reach(events[0].V, events[deepAt].V); api.AsError(err, api.CodeInternal).Code != api.CodeVertexNotLabeled {
				t.Fatalf("refused vertex: %v", err)
			}
			if lin, err := lineage(s, events[deepAt-1].V); err != nil || len(lin) == 0 {
				t.Fatalf("lineage over the prefix: %v, %v", lin, err)
			}
			n, err = ingest(s, events[deepAt+1:])
			requireTooDeep(t, err)
			if n != 0 {
				t.Fatalf("ingest after the refusal applied %d events", n)
			}
		})
	}
}
