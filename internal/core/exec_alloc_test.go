//go:build !race

package core_test

import (
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// streamAllocs is what insertAllocs measured on one stream: how many
// insertions bound a vertex to an open instance (members) and how many
// opened one (opens), the allocations of the former and of all.
type streamAllocs struct {
	members, opens int
	memberAllocs   float64
	allAllocs      float64
}

// insertAllocs feeds the two benchmark grammars' streams through insert
// and reports, per stream, the allocations of every insertion once the
// first quarter of the stream has grown the labeler's buffers.
//
// AllocsPerRun calls its function once to warm up and once measured,
// and an insertion cannot be repeated; so two labelers take the same
// stream in lockstep, the first absorbing the warm-up call of every
// measurement. The vertex table allocates a page every 1024 ids and the
// parse tree a chunk now and then, so a handful of insertions in
// thousands carry one: the gates are on the mean.
func insertAllocs(t *testing.T, insert func(k int, e *core.ExecutionLabeler, ev run.Event) error, check func(name string, s streamAllocs)) {
	bio := spec.MustCompile(wfspecs.BioAID())
	bioEvents, err := gen.MustGenerate(bio, gen.Options{TargetSize: 6000, Seed: 11, MaxCopies: 64}).Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 6000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *spec.Grammar
		evs  []run.Event
	}{{"BioAID", bio, bioEvents}, {"agent", agent.Run.Grammar, agent.Events}} {
		pair := [2]*core.ExecutionLabeler{
			core.NewExecutionLabeler(c.g, skeleton.TCL, core.RModeDesignated),
			core.NewExecutionLabeler(c.g, skeleton.TCL, core.RModeDesignated),
		}
		var s streamAllocs
		worst := 0.0
		for i, ev := range c.evs {
			k := 0
			step := func() {
				if err := insert(k, pair[k], ev); err != nil {
					t.Fatalf("%s: event %d: %v", c.name, i, err)
				}
				k++
			}
			if i < len(c.evs)/4 {
				step()
				step()
				continue
			}
			n := testing.AllocsPerRun(1, step)
			s.allAllocs += n
			if ev.Ref.V == c.g.Spec().Graph(ev.Ref.Graph).G.Source() {
				s.opens++
				continue
			}
			s.members++
			s.memberAllocs += n
			worst = max(worst, n)
		}
		t.Logf("%s: %d member insertions, %.3f allocations each, worst %.0f; %d opened instances, %.3f allocations per instance over all insertions",
			c.name, s.members, s.memberAllocs/float64(s.members), worst, s.opens, s.allAllocs/float64(s.opens))
		if s.members < 1000 || s.opens < 100 {
			t.Fatalf("%s: only %d member insertions and %d opened instances measured", c.name, s.members, s.opens)
		}
		check(c.name, s)
	}
}

// TestInsertAllocatesOnlyTheLabel is the allocation gate on Insert: it
// allocates the label it returns — the caller's to keep — and nothing
// else.
func TestInsertAllocatesOnlyTheLabel(t *testing.T) {
	insertAllocs(t, func(_ int, e *core.ExecutionLabeler, ev run.Event) error {
		_, err := e.Insert(ev)
		return err
	}, func(name string, s streamAllocs) {
		if mean := s.memberAllocs / float64(s.members); mean > 1.005 {
			t.Errorf("%s: %.3f allocations per member insertion, want 1 (the label)", name, mean)
		}
	})
}

// appendInsert is the ingest hot path: every insertion writes its label
// into the caller's own entry buffer.
func appendInsert() func(k int, e *core.ExecutionLabeler, ev run.Event) error {
	var bufs [2][]label.Entry
	return func(k int, e *core.ExecutionLabeler, ev run.Event) (err error) {
		bufs[k], err = e.AppendInsert(bufs[k][:0], ev)
		return err
	}
}

// TestAppendInsertAllocatesNothing is the gate on the ingest hot path,
// which hands the labeler its own entry buffer: binding a vertex to an
// open instance has nothing left to allocate.
func TestAppendInsertAllocatesNothing(t *testing.T) {
	insertAllocs(t, appendInsert(), func(name string, s streamAllocs) {
		if mean := s.memberAllocs / float64(s.members); mean > 0.005 {
			t.Errorf("%s: %.3f allocations per member insertion into the caller's buffer, want 0", name, mean)
		}
	})
}

// TestOpenedInstanceAllocatesOnlyChunks is the same stream with the
// source insertions counted too: an opened instance — its node, RunOf
// and Groups, its place in the parent's child list, the prefix of the
// expansion and of its group node — is carved from the parse tree's
// slab, so what every insertion allocates together, per instance
// opened, is the slab's chunk refills and the vertex table's pages.
func TestOpenedInstanceAllocatesOnlyChunks(t *testing.T) {
	insertAllocs(t, appendInsert(), func(name string, s streamAllocs) {
		if mean := s.allAllocs / float64(s.opens); mean > 0.25 {
			t.Errorf("%s: %.3f allocations per opened instance, want at most 0.25 (chunk refills only)", name, mean)
		}
	})
}
