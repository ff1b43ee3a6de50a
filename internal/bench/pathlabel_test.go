package bench

import (
	"fmt"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestFig12RunsAreCompactlyLabelable realizes Example 15: runs of the
// Figure 12 grammar are simple paths, so the index scheme labels them
// with O(log n) bits and answers every query correctly.
func TestFig12RunsAreCompactlyLabelable(t *testing.T) {
	g := spec.MustCompile(wfspecs.Fig12())
	for seed := int64(0); seed < 5; seed++ {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 400, Seed: seed, DepthFirst: seed%2 == 0})
		evs, err := r.Execution(nil)
		if err != nil {
			t.Fatal(err)
		}
		p := newPathLabeler()
		for _, ev := range evs {
			if _, err := p.insert(ev.V, ev.Preds); err != nil {
				t.Fatalf("seed %d: Fig12 run is not a path? %v", seed, err)
			}
		}
		// Logarithmic labels on a nonlinear grammar (Example 15's
		// point): ⌈log₂ n⌉ bits, never linear.
		n := r.Size()
		if p.maxBits() > 2+bits(n) {
			t.Fatalf("max label %d bits for n=%d", p.maxBits(), n)
		}
		live := r.Graph.LiveVertices()
		for _, v := range live {
			for _, w := range live {
				got, err := p.reach(v, w)
				if err != nil {
					t.Fatal(err)
				}
				if want := r.Graph.Reaches(v, w); got != want {
					t.Fatalf("π(%d,%d)=%v, want %v", v, w, got, want)
				}
			}
		}
	}
}

func bits(n int) int {
	b := 1
	for n >= 1<<b {
		b++
	}
	return b
}

func TestRejectsNonPathInsertions(t *testing.T) {
	p := newPathLabeler()
	if _, err := p.insert(0, []graph.VertexID{5}); err == nil {
		t.Fatal("first vertex with preds accepted")
	}
	if _, err := p.insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.insert(0, nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := p.insert(1, nil); err == nil {
		t.Fatal("second parentless vertex accepted")
	}
	if _, err := p.insert(1, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	// Branching breaks the path property.
	if _, err := p.insert(2, []graph.VertexID{0}); err == nil {
		t.Fatal("branching insertion accepted")
	}
	if _, err := p.insert(2, []graph.VertexID{0, 1}); err == nil {
		t.Fatal("multi-pred insertion accepted")
	}
}

func TestRejectsForkingWorkflows(t *testing.T) {
	// The running example's runs fork; the path scheme must refuse them.
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 200, Seed: 1})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := newPathLabeler()
	failed := false
	for _, ev := range evs {
		if _, err := p.insert(ev.V, ev.Preds); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("a forking run slipped through the path check")
	}
}

func TestPathLabelAccessors(t *testing.T) {
	p := newPathLabeler()
	if p.maxBits() != 0 || p.count() != 0 {
		t.Fatal("empty stats wrong")
	}
	p.insert(7, nil)
	if p.count() != 1 {
		t.Fatal("count wrong")
	}
	if _, err := p.reach(7, 8); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	if _, err := p.reach(8, 7); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	if !pathPi(1, 1) || pathPi(2, 1) {
		t.Fatal("Pi wrong")
	}
	if pathLabel(1023).bitLen() != 10 || pathLabel(0).bitLen() != 1 {
		t.Fatal("BitLen wrong")
	}
}

// pathPi reports reachability from two labels alone: on a path, v
// reaches w iff v precedes (or equals) w.
func pathPi(a, b pathLabel) bool { return a <= b }

// reach answers reachability between two inserted vertices.
func (p *pathLabeler) reach(v, w graph.VertexID) (bool, error) {
	a, ok := p.byID[v]
	if !ok {
		return false, fmt.Errorf("pathlabel: vertex %d not inserted", v)
	}
	b, ok := p.byID[w]
	if !ok {
		return false, fmt.Errorf("pathlabel: vertex %d not inserted", w)
	}
	return pathPi(a, b), nil
}

// count returns the number of inserted vertices.
func (p *pathLabeler) count() int { return len(p.byID) }
