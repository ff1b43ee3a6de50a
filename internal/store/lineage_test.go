package store_test

import (
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
)

// lineageRuns are the two benchmark grammars: BioAID (short labels,
// dense closures) and the agent grammar (deep recursion, sparse ones).
func lineageRuns(t *testing.T) map[string]*run.Run {
	t.Helper()
	tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 600, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*run.Run{
		"BioAID": gen.MustGenerate(spec.MustCompile(wfspecs.BioAID()), gen.Options{TargetSize: 600, Seed: 21}),
		"agent":  tr.Run,
	}
}

// labeled returns the run's labels as store entries, ascending by id.
func labeled(t *testing.T, r *run.Run) []store.Entry {
	t.Helper()
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	enc := store.New(r.Grammar)
	var entries []store.Entry
	for _, v := range r.Graph.LiveVertices() {
		entries = append(entries, store.Entry{V: v, Enc: enc.Encode(d.MustLabel(v))})
	}
	slices.SortFunc(entries, func(a, b store.Entry) int { return int(a.V - b.V) })
	return entries
}

func stored(t *testing.T, r *run.Run, entries []store.Entry) *store.Store {
	t.Helper()
	s := store.New(r.Grammar)
	if err := s.AppendOwned(entries); err != nil {
		t.Fatal(err)
	}
	s.Publish()
	return s
}

// TestLineagePagesConcatenateToLineage: over random targets of both
// grammars, Lineage equals breadth-first search on the run; pages of
// random sizes walked cursor to cursor concatenate to it; and a page
// from any cursor — an ancestor, a stranger, below zero, past the end —
// with any limit is the next limit ancestors above that cursor, with
// more set exactly when some remain.
func TestLineagePagesConcatenateToLineage(t *testing.T) {
	for name, r := range lineageRuns(t) {
		entries := labeled(t, r)
		s := stored(t, r, entries)
		rng := rand.New(rand.NewSource(4))
		maxID := entries[len(entries)-1].V
		for range 40 {
			v := entries[rng.Intn(len(entries))].V
			full, err := s.Lineage(v)
			if err != nil {
				t.Fatal(err)
			}
			var bfs []graph.VertexID
			for _, e := range entries {
				if r.Graph.Reaches(e.V, v) {
					bfs = append(bfs, e.V)
				}
			}
			if !slices.Equal(full, bfs) {
				t.Fatalf("%s: Lineage(%d) = %v, BFS says %v", name, v, full, bfs)
			}

			var walked []graph.VertexID
			cursor, more := graph.None, true
			for pages := 0; more; pages++ {
				var page []graph.VertexID
				limit := 1 + rng.Intn(40)
				if page, more, err = s.LineagePage(v, cursor, limit); err != nil {
					t.Fatal(err)
				}
				if len(page) > limit || more && len(page) != limit || len(page) == 0 && pages > 0 {
					t.Fatalf("%s: page of %d after %d with limit %d, more=%v", name, len(page), cursor, limit, more)
				}
				walked = append(walked, page...)
				if len(page) > 0 {
					cursor = page[len(page)-1]
				}
			}
			if !slices.Equal(walked, full) {
				t.Fatalf("%s: pages of %d concatenate to %v, Lineage is %v", name, v, walked, full)
			}

			for range 20 {
				after := graph.VertexID(rng.Intn(int(maxID)+40) - 20)
				if rng.Intn(8) == 0 {
					after = []graph.VertexID{-1 << 31, 1<<31 - 1, maxID, 1 << 27}[rng.Intn(4)]
				}
				limit := 1 + rng.Intn(60)
				rest := full[len(full):]
				if i := slices.IndexFunc(full, func(w graph.VertexID) bool { return w > after }); i >= 0 {
					rest = full[i:]
				}
				page, more, err := s.LineagePage(v, after, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(page, rest[:min(limit, len(rest))]) || more != (len(rest) > limit) {
					t.Fatalf("%s: LineagePage(%d, after %d, limit %d) = %v, more=%v; the closure above the cursor is %v",
						name, v, after, limit, page, more, rest)
				}
			}
		}
	}
}

// TestLineagePageVisitsOnlyItsPage: a page costs the labels up to the
// first ancestor past it, not the store. The proof is a label that does
// not parse, planted right behind the ancestor that ends the walk of a
// limit-k page: that page is served, one ancestor more walks into the
// damage and fails — as the full scan does.
func TestLineagePageVisitsOnlyItsPage(t *testing.T) {
	for name, r := range lineageRuns(t) {
		entries := labeled(t, r)
		// The densest closure of the run: its first page is the one a
		// full scan overpays the most for.
		clean := stored(t, r, entries)
		var target graph.VertexID
		var full []graph.VertexID
		for _, e := range entries {
			if lin, err := clean.Lineage(e.V); err != nil {
				t.Fatal(err)
			} else if len(lin) > len(full) {
				target, full = e.V, lin
			}
		}
		// A page short against the closure, and ending above the target
		// (whose own label the walk needs whole).
		limit := 5
		for limit < len(full) && full[limit] <= target {
			limit++
		}
		if len(full) < 4*limit {
			t.Fatalf("%s: widest closure has %d ancestors, the page %d", name, len(full), limit)
		}
		// The walk of a limit-k page ends on ancestor k+1; the next
		// stored vertex after it is never looked at.
		stop := full[limit]
		i, _ := slices.BinarySearchFunc(entries, stop, func(e store.Entry, v graph.VertexID) int { return int(e.V - v) })
		broken := slices.Clone(entries)
		broken[i+1].Enc = []byte{0x00} // no stop bit: not even its end can be read
		s := stored(t, r, broken)
		page, more, err := s.LineagePage(target, graph.None, limit)
		if err != nil || !more || !slices.Equal(page, full[:limit]) {
			t.Fatalf("%s: first page of %d = %v, more=%v, %v; want %v without touching vertex %d",
				name, target, page, more, err, full[:limit], broken[i+1].V)
		}
		if _, _, err := s.LineagePage(target, graph.None, limit+1); err == nil {
			t.Fatalf("%s: a page one ancestor longer walked past malformed vertex %d", name, broken[i+1].V)
		}
		if _, err := s.Lineage(target); err == nil {
			t.Fatalf("%s: the full scan walked past malformed vertex %d", name, broken[i+1].V)
		}
	}
}
