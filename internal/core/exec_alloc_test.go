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

// memberAllocs feeds the two benchmark grammars' streams through insert
// and reports, per stream, the mean and worst allocations of binding a
// vertex to an open instance once the labeler's buffers have grown.
// Events that open an instance also allocate the instance (a chunk of
// them, now and then), so they are fed through unmeasured.
//
// AllocsPerRun calls its function once to warm up and once measured,
// and an insertion cannot be repeated; so two labelers take the same
// stream in lockstep, the first absorbing the warm-up call of every
// measurement. The vertex table allocates a page every 1024 ids, so a
// handful of insertions in thousands carry one: the gates are on the
// mean, with half a percent of room for those.
func memberAllocs(t *testing.T, insert func(k int, e *core.ExecutionLabeler, ev run.Event) error, check func(name string, mean float64)) {
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
		members, allocs, worst := 0, 0.0, 0.0
		for i, ev := range c.evs {
			k := 0
			step := func() {
				if err := insert(k, pair[k], ev); err != nil {
					t.Fatalf("%s: event %d: %v", c.name, i, err)
				}
				k++
			}
			opens := ev.Ref.V == c.g.Spec().Graph(ev.Ref.Graph).G.Source()
			if opens || i < len(c.evs)/4 {
				step()
				step()
				continue
			}
			n := testing.AllocsPerRun(1, step)
			members++
			allocs += n
			worst = max(worst, n)
		}
		t.Logf("%s: %d member insertions, %.3f allocations each, worst %.0f", c.name, members, allocs/float64(members), worst)
		if members < 1000 {
			t.Fatalf("%s: only %d member insertions measured", c.name, members)
		}
		check(c.name, allocs/float64(members))
	}
}

// TestInsertAllocatesOnlyTheLabel is the allocation gate on Insert: it
// allocates the label it returns — the caller's to keep — and nothing
// else.
func TestInsertAllocatesOnlyTheLabel(t *testing.T) {
	memberAllocs(t, func(_ int, e *core.ExecutionLabeler, ev run.Event) error {
		_, err := e.Insert(ev)
		return err
	}, func(name string, mean float64) {
		if mean > 1.005 {
			t.Errorf("%s: %.3f allocations per member insertion, want 1 (the label)", name, mean)
		}
	})
}

// TestAppendInsertAllocatesNothing is the gate on the ingest hot path,
// which hands the labeler its own entry buffer: nothing is left to
// allocate.
func TestAppendInsertAllocatesNothing(t *testing.T) {
	var bufs [2][]label.Entry
	memberAllocs(t, func(k int, e *core.ExecutionLabeler, ev run.Event) (err error) {
		bufs[k], err = e.AppendInsert(bufs[k][:0], ev)
		return err
	}, func(name string, mean float64) {
		if mean > 0.005 {
			t.Errorf("%s: %.3f allocations per member insertion into the caller's buffer, want 0", name, mean)
		}
	})
}
