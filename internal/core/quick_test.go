package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestQuickPiMatchesGroundTruth: testing/quick drives randomized
// (grammar, run, vertex pair) triples through π.
func TestQuickPiMatchesGroundTruth(t *testing.T) {
	grammars := []*spec.Grammar{
		spec.MustCompile(wfspecs.RunningExample()),
		spec.MustCompile(wfspecs.BioAID()),
		spec.MustCompile(wfspecs.Fig12()),
	}
	type labeled struct {
		r *run.Run
		d *core.DerivationLabeler
	}
	cache := map[int64]labeled{}
	get := func(seed int64) labeled {
		if l, ok := cache[seed]; ok {
			return l
		}
		g := grammars[int(seed%int64(len(grammars)))]
		r := gen.MustGenerate(g, gen.Options{TargetSize: 70 + int(seed%200), Seed: seed})
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		l := labeled{r, d}
		cache[seed] = l
		return l
	}
	f := func(seed int64, a, b uint16) bool {
		if seed < 0 {
			seed = -seed
		}
		seed %= 17 // bounded distinct workloads, many pairs each
		l := get(seed)
		live := l.r.Graph.LiveVertices()
		v := live[int(a)%len(live)]
		w := live[int(b)%len(live)]
		return l.d.Reach(v, w) == l.r.Graph.Reaches(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLabelPrefixSharing: the entry list of any vertex deeper in
// the tree extends a prefix shared with its instance siblings — the
// invariant Algorithm 3's append-only construction relies on.
func TestQuickLabelPrefixSharing(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 300, Seed: 8})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	live := r.Graph.LiveVertices()
	f := func(a, b uint16) bool {
		v := live[int(a)%len(live)]
		w := live[int(b)%len(live)]
		lv, lw := d.MustLabel(v), d.MustLabel(w)
		// Find the index divergence; all entries before it must be
		// fully identical (same tree nodes ⇒ same type and, for
		// special nodes, same everything).
		n := lv.Len()
		if lw.Len() < n {
			n = lw.Len()
		}
		for i := 0; i < n; i++ {
			if lv.Entries[i].Index != lw.Entries[i].Index {
				return true // diverged; nothing more to check
			}
			if lv.Entries[i].Type != lw.Entries[i].Type {
				return false // same path position, different node type: broken
			}
			if i < n-1 && lv.Entries[i].Type.String() != "N" {
				if lv.Entries[i] != lw.Entries[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopOfLoops exercises doubly nested repetition: a loop whose
// body contains another loop, plus a fork of forks.
func TestLoopOfLoops(t *testing.T) {
	s := spec.NewBuilder().
		Loop("LO", "LI").Fork("FO", "FI").
		Start("g0", spec.G([]string{"s0", "LO", "FO", "t0"},
			[2]string{"s0", "LO"}, [2]string{"LO", "FO"}, [2]string{"FO", "t0"})).
		Implement("LO", "h1", spec.G([]string{"s1", "LI", "t1"},
			[2]string{"s1", "LI"}, [2]string{"LI", "t1"})).
		Implement("LI", "h2", spec.G([]string{"s2", "w2", "t2"},
			[2]string{"s2", "w2"}, [2]string{"w2", "t2"})).
		Implement("FO", "h3", spec.G([]string{"s3", "FI", "t3"},
			[2]string{"s3", "FI"}, [2]string{"FI", "t3"})).
		Implement("FI", "h4", spec.G([]string{"s4", "w4", "t4"},
			[2]string{"s4", "w4"}, [2]string{"w4", "t4"})).
		MustBuild()
	g := spec.MustCompile(s)
	if g.Class() != spec.ClassNonRecursive {
		t.Fatalf("class = %v", g.Class())
	}
	for seed := int64(0); seed < 6; seed++ {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 250, Seed: seed})
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		verifyAllPairs(t, r, d.Reach, "loop-of-loops")
		// Execution-based as well.
		evs, err := r.Execution(nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Graph.LiveVertices() {
			el, ok := e.Label(v)
			if !ok || !el.Equal(d.MustLabel(v)) {
				t.Fatalf("seed %d: labels diverge at %d", seed, v)
			}
		}
	}
}

// TestMinimalTwoVertexImplementations: the smallest legal graphs
// (source→sink dummies only) work through every layer.
func TestMinimalTwoVertexImplementations(t *testing.T) {
	s := spec.NewBuilder().
		Loop("L").
		Start("g0", spec.G([]string{"s0", "L", "t0"},
			[2]string{"s0", "L"}, [2]string{"L", "t0"})).
		Implement("L", "h1", spec.G([]string{"s1", "t1"}, [2]string{"s1", "t1"})).
		MustBuild()
	g := spec.MustCompile(s)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 200, Seed: 3})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		t.Fatal(err)
	}
	verifyAllPairs(t, r, d.Reach, "two-vertex-impl")
}
