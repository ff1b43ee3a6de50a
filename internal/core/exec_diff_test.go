package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// wideForkRun derives the agent grammar by hand so that one plan fans
// out into `copies` parallel tool calls: the vertex joining them has
// that many predecessors, whose slot-parent chains all merge one step
// up — the widest sorted comparison and the most visit-stamp
// collisions a single insertion can meet.
func wideForkRun(t *testing.T, copies int) *run.Run {
	t.Helper()
	g := spec.MustCompile(wfspecs.Agent())
	r := run.New(g)
	for !r.Complete() {
		u := r.Open()[0]
		impls := g.Spec().Implementations(r.NameOf(u))
		impl, n := impls[0], 1
		switch r.NameOf(u) {
		case "Agent", "Sub": // h_plan does the work, h_skip ends the recursion
			impl = impls[1]
		case "Calls":
			n = copies
		}
		if _, err := r.Apply(u, impl, n); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// diffRuns is the differential corpus: the two fixed grammars of the
// benchmark, random linear and nonlinear grammars, and the wide fork.
func diffRuns(t *testing.T) map[string]*run.Run {
	t.Helper()
	runs := map[string]*run.Run{
		"BioAID":   gen.MustGenerate(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 400, Seed: 5}),
		"widefork": wideForkRun(t, 72),
	}
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runs["agent"] = tr.Run
	for seed := int64(0); seed < 6; seed++ {
		lin := wfspecs.RandomParams{Plain: int(seed % 4), Loops: 1 + int(seed%2), Forks: 1 + int(seed%3),
			RecursionLen: int(seed % 4), MaxGraphSize: 5 + int(seed%5), Seed: seed * 1013}
		runs[fmt.Sprintf("linear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(lin)),
			gen.Options{TargetSize: 150, Seed: seed})
		non := wfspecs.RandomParams{Plain: int(seed % 3), Loops: int(seed % 2), Forks: int(seed % 2),
			RecursionLen: 1 + int(seed%3), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 509}
		runs[fmt.Sprintf("nonlinear%d", seed)] = gen.MustGenerate(spec.MustCompile(wfspecs.RandomSpec(non)),
			gen.Options{TargetSize: 100, Seed: seed, DepthFirst: seed%2 == 1})
	}
	return runs
}

// shuffledExecution is the run's execution in first-ready-first order
// with the predecessor list of every event shuffled: a log owes the
// labeler no particular order of those. The event order stays
// canonical because parallel fork copies are numbered as they open, so
// only the order the derivation created them in reproduces its labels
// entry for entry (any other topological order gives labels equal up
// to a renumbering of copies, which the reachability tests cover).
func shuffledExecution(t *testing.T, r *run.Run, rng *rand.Rand) []run.Event {
	t.Helper()
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		rng.Shuffle(len(ev.Preds), func(i, j int) { ev.Preds[i], ev.Preds[j] = ev.Preds[j], ev.Preds[i] })
	}
	return evs
}

// TestExecutionLabelsMatchDerivation is the differential the rewrite of
// the insertion path answers to. On every corpus run, skeleton kind and
// recursion mode, the label Insert returns equals the derivation
// labeler's entry for entry, and Label(v) — rebuilt on demand, nothing
// is stored — equals the label Insert returned.
func TestExecutionLabelsMatchDerivation(t *testing.T) {
	for name, r := range diffRuns(t) {
		for _, kind := range []skeleton.Kind{skeleton.TCL, skeleton.BFS} {
			for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
				d, err := core.LabelRun(r, kind, mode)
				if err != nil {
					t.Fatalf("%s %v %v: %v", name, kind, mode, err)
				}
				evs := shuffledExecution(t, r, rand.New(rand.NewSource(int64(len(name))+int64(kind)*7+int64(mode))))
				e := core.NewExecutionLabeler(r.Grammar, kind, mode)
				issued := make(map[graph.VertexID]label.Label, len(evs))
				widest := 0
				for i, ev := range evs {
					l, err := e.Insert(ev)
					if err != nil {
						t.Fatalf("%s %v %v: event %d: %v", name, kind, mode, i, err)
					}
					if want := d.MustLabel(ev.V); !l.Equal(want) {
						t.Fatalf("%s %v %v: vertex %d labeled %v, derivation says %v", name, kind, mode, ev.V, l, want)
					}
					issued[ev.V] = l
					widest = max(widest, len(ev.Preds))
				}
				if name == "widefork" && widest < 64 {
					t.Fatalf("widest join has %d predecessors, want at least 64", widest)
				}
				if e.LabelCount() != len(evs) {
					t.Fatalf("%s: LabelCount %d after %d events", name, e.LabelCount(), len(evs))
				}
				for v, l := range issued {
					if got, ok := e.Label(v); !ok || !got.Equal(l) {
						t.Fatalf("%s %v %v: Label(%d) = %v, Insert returned %v", name, kind, mode, v, got, l)
					}
				}
			}
		}
	}
}

// TestRejectedEventLeavesLabelerUsable: an event no instance accepts,
// or one naming a predecessor never inserted, is refused at any point
// of the stream, and the search it abandoned midway leaves nothing
// behind — every later event still gets the derivation labeler's label.
func TestRejectedEventLeavesLabelerUsable(t *testing.T) {
	runs := diffRuns(t)
	for _, name := range []string{"BioAID", "agent", "widefork"} {
		r := runs[name]
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		evs := shuffledExecution(t, r, rng)
		e := core.NewExecutionLabeler(r.Grammar, skeleton.TCL, core.RModeDesignated)
		for i, ev := range evs {
			if i > 0 {
				const ghost = graph.VertexID(1 << 30)
				rejects := map[string]run.Event{
					// g0's source again: the walk visits every candidate
					// up to the root and none has room for it.
					"no accepting instance": {V: ghost, Ref: evs[0].Ref, Preds: ev.Preds},
					// The right vertex fed by one edge too many: every
					// candidate's comparison runs and fails.
					"wrong predecessor set": {V: ghost, Ref: ev.Ref, Preds: append(ev.Preds[:len(ev.Preds):len(ev.Preds)], ev.Preds[0])},
					"unknown predecessor":   {V: ghost, Ref: ev.Ref, Preds: append(ev.Preds[:len(ev.Preds):len(ev.Preds)], ghost+1)},
				}
				for why, bad := range rejects {
					if _, err := e.Insert(bad); err == nil {
						t.Fatalf("%s: event %d: %s accepted", name, i, why)
					}
				}
			}
			l, err := e.Insert(ev)
			if err != nil {
				t.Fatalf("%s: event %d after rejections: %v", name, i, err)
			}
			if want := d.MustLabel(ev.V); !l.Equal(want) {
				t.Fatalf("%s: vertex %d labeled %v after rejections, derivation says %v", name, ev.V, l, want)
			}
		}
	}
}

// TestReturnedLabelsNeverAliasScratch: a label handed out is the
// caller's. Scribbling over its entries changes neither the labeler's
// view nor any other label, and ten thousand further insertions —
// every one reusing the labeler's buffers — change no label returned
// before them.
func TestReturnedLabelsNeverAliasScratch(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 11000, Seed: 9, MaxCopies: 64})
	evs := shuffledExecution(t, r, rand.New(rand.NewSource(9)))
	const early = 500
	if len(evs) < early+10000 {
		t.Fatalf("run has %d events, need %d", len(evs), early+10000)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	issued := make([]label.Label, len(evs))
	frozen := make([]string, early)
	for i, ev := range evs {
		l, err := e.Insert(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		issued[i] = l
		if i < early {
			frozen[i] = l.String()
		}
		if i == early-1 {
			// Deface a copy of every second early label: the entries
			// must be private to that one returned value.
			for j := 0; j < early; j += 2 {
				mine, _ := e.Label(evs[j].V)
				for k := range mine.Entries {
					mine.Entries[k] = label.Entry{Index: -7}
				}
			}
		}
	}
	for i := 0; i < early; i++ {
		if got := issued[i].String(); got != frozen[i] {
			t.Fatalf("label of event %d changed from %s to %s", i, frozen[i], got)
		}
		if got, _ := e.Label(evs[i].V); got.String() != frozen[i] {
			t.Fatalf("Label(%d) = %s, was issued as %s", evs[i].V, got, frozen[i])
		}
	}
	// And the other direction: defacing what Insert itself returned.
	for k := range issued[len(evs)-1].Entries {
		issued[len(evs)-1].Entries[k] = label.Entry{Index: -7}
	}
	if got, _ := e.Label(evs[len(evs)-1].V); got.Equal(issued[len(evs)-1]) {
		t.Fatal("Label returned the caller's defaced entries")
	}
	if got, _ := e.Label(evs[len(evs)-2].V); !got.Equal(issued[len(evs)-2]) {
		t.Fatal("defacing one returned label changed its neighbour")
	}
}

// TestInsertNamedDuplicateVertexErrors: an interior named event that
// fits the stream but reuses a labeled vertex id used to skip the
// duplicate check Insert makes and reach bind's panic. It is an error,
// it leaves the slot open, and the stream carries on.
func TestInsertNamedDuplicateVertexErrors(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 200, Seed: 4})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
	interior := 0
	for i, ev := range evs {
		named := core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds}
		if gg := g.Spec().Graph(ev.Ref.Graph).G; ev.Ref.V != gg.Source() && ev.Ref.V != gg.Sink() {
			interior++
			dup := named
			dup.V = evs[0].V
			if _, err := e.InsertNamed(dup); err == nil {
				t.Fatalf("event %d accepted as already-labeled vertex %d", i, dup.V)
			}
		}
		l, err := e.InsertNamed(named)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !l.Equal(d.MustLabel(ev.V)) {
			t.Fatalf("event %d mislabeled", i)
		}
	}
	if interior == 0 {
		t.Fatal("stream had no interior module")
	}
}
