//go:build !race

package core_test

import (
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestInsertAllocatesOnlyTheLabel is the allocation gate on the ingest
// hot path: once the labeler's buffers have grown, binding a vertex to
// an open instance allocates the label it returns and nothing else.
// Events that open an instance also allocate the instance, so they are
// fed through unmeasured.
//
// AllocsPerRun calls its function once to warm up and once measured,
// and an insertion cannot be repeated; so two labelers take the same
// stream in lockstep, the first absorbing the warm-up call of every
// measurement. The vertex-to-context map grows by doubling, so a few
// insertions in thousands carry a growth step: the gate is on the
// mean, with 2% of room for those.
func TestInsertAllocatesOnlyTheLabel(t *testing.T) {
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
			insert := func() {
				if _, err := pair[k].Insert(ev); err != nil {
					t.Fatalf("%s: event %d: %v", c.name, i, err)
				}
				k++
			}
			opens := ev.Ref.V == c.g.Spec().Graph(ev.Ref.Graph).G.Source()
			if opens || i < len(c.evs)/4 {
				insert()
				insert()
				continue
			}
			n := testing.AllocsPerRun(1, insert)
			members++
			allocs += n
			worst = max(worst, n)
		}
		t.Logf("%s: %d member insertions, %.3f allocations each, worst %.0f", c.name, members, allocs/float64(members), worst)
		if members < 1000 {
			t.Fatalf("%s: only %d member insertions measured", c.name, members)
		}
		if allocs > 1.02*float64(members) {
			t.Errorf("%s: %.3f allocations per member insertion, want 1 (the label)", c.name, allocs/float64(members))
		}
	}
}
