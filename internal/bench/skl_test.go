package bench

import (
	"math"
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func nonRecursive(t testing.TB) *spec.Grammar {
	t.Helper()
	return spec.MustCompile(wfspecs.BioAIDNonRecursive())
}

func TestSKLAllPairsAgainstGroundTruth(t *testing.T) {
	g := nonRecursive(t)
	for seed := int64(0); seed < 5; seed++ {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 150, Seed: seed})
		s, err := buildSKL(r, skeleton.TCL)
		if err != nil {
			t.Fatal(err)
		}
		live := r.Graph.LiveVertices()
		for _, v := range live {
			for _, w := range live {
				want := r.Graph.Reaches(v, w)
				if got := s.reach(v, w); got != want {
					t.Fatalf("seed %d: SKL(%d→%d)=%v, want %v (%s→%s)",
						seed, v, w, got, want, r.NameOf(v), r.NameOf(w))
				}
			}
		}
	}
}

func TestSKLWithBFSGlobalSkeleton(t *testing.T) {
	g := nonRecursive(t)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: 9})
	s, err := buildSKL(r, skeleton.BFS)
	if err != nil {
		t.Fatal(err)
	}
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 3000; k++ {
		v := live[rng.Intn(len(live))]
		w := live[rng.Intn(len(live))]
		if got, want := s.reach(v, w), r.Graph.Reaches(v, w); got != want {
			t.Fatalf("SKL(BFS)(%d→%d)=%v, want %v", v, w, got, want)
		}
	}
	if s.skeletonBits() != 0 {
		t.Fatal("BFS skeleton stores nothing")
	}
}

func TestSKLLoopForkHeavySpec(t *testing.T) {
	// A dedicated spec exercising nested loop-inside-fork and
	// fork-inside-loop, the cases where a naive global-skeleton-only
	// scheme breaks (copy order vs copy isolation).
	s := spec.NewBuilder().
		Loop("LO").Fork("FO").
		Start("g0", spec.G([]string{"s0", "LO", "t0"},
			[2]string{"s0", "LO"}, [2]string{"LO", "t0"})).
		Implement("LO", "h1", spec.G([]string{"s1", "FO", "t1"},
			[2]string{"s1", "FO"}, [2]string{"FO", "t1"})).
		Implement("FO", "h2", spec.G([]string{"s2", "x", "t2"},
			[2]string{"s2", "x"}, [2]string{"x", "t2"})).
		MustBuild()
	g := spec.MustCompile(s)
	for seed := int64(0); seed < 6; seed++ {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 120, Seed: seed})
		sc, err := buildSKL(r, skeleton.TCL)
		if err != nil {
			t.Fatal(err)
		}
		live := r.Graph.LiveVertices()
		for _, v := range live {
			for _, w := range live {
				if got, want := sc.reach(v, w), r.Graph.Reaches(v, w); got != want {
					t.Fatalf("seed %d: (%d→%d)=%v, want %v", seed, v, w, got, want)
				}
			}
		}
	}
}

func TestSKLTable2GlobalSkeleton(t *testing.T) {
	g := nonRecursive(t)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 50, Seed: 0})
	s, err := buildSKL(r, skeleton.TCL)
	if err != nil {
		t.Fatal(err)
	}
	// Table 2: the global specification graph has 106 vertices and its
	// triangular TCL skeleton takes exactly 5565 bits.
	in, err := g.InlineAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := in.Graph.NumVertices(); n != 106 {
		t.Fatalf("global size = %d, want 106", n)
	}
	if s.skeletonBits() != 5565 {
		t.Fatalf("skeleton bits = %d, want 5565", s.skeletonBits())
	}
}

func TestSKLLabelLengthIsThreeLogN(t *testing.T) {
	g := nonRecursive(t)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 4000, Seed: 3})
	s, err := buildSKL(r, skeleton.TCL)
	if err != nil {
		t.Fatal(err)
	}
	maxBits := 0
	for _, v := range r.Graph.LiveVertices() {
		if b := s.bitLen(s.mustLabel(v)); b > maxBits {
			maxBits = b
		}
	}
	n := float64(r.Size())
	// Upper bound from Section 7.4: 3·log n_t + O(log n_G); allow a
	// generous constant. Also require it to be at least 2·log n (the
	// two interval indexes alone), confirming the 3-index shape.
	lo := 2 * math.Log2(n) * 0.5
	hi := 3*math.Log2(n) + 80
	if float64(maxBits) < lo || float64(maxBits) > hi {
		t.Fatalf("max label = %d bits for n=%d, outside [%.0f, %.0f]", maxBits, r.Size(), lo, hi)
	}
}

func TestSKLRejectsRecursiveGrammar(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 50, Seed: 0})
	if _, err := buildSKL(r, skeleton.TCL); err == nil {
		t.Fatal("SKL must reject recursive workflows (limitation 2)")
	}
}

func TestSKLRejectsIncompleteRun(t *testing.T) {
	g := nonRecursive(t)
	r := run.New(g)
	if _, err := buildSKL(r, skeleton.TCL); err == nil {
		t.Fatal("SKL must reject incomplete runs (limitation 1: static)")
	}
}

func TestSKLLabelAccessors(t *testing.T) {
	g := nonRecursive(t)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 60, Seed: 2})
	s, err := buildSKL(r, skeleton.TCL)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.labels) != r.Size() {
		t.Fatalf("%d labels, want %d", len(s.labels), r.Size())
	}
	if _, ok := s.labels[99999]; ok {
		t.Fatal("label for unknown vertex")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mustLabel must panic for unknown vertex")
		}
	}()
	s.mustLabel(99999)
}

// TestSKLAgreesWithDRL differentially tests the two schemes: on the
// same runs, the static baseline and the dynamic scheme must give
// identical answers for every pair.
func TestSKLAgreesWithDRL(t *testing.T) {
	g := nonRecursive(t)
	for seed := int64(0); seed < 4; seed++ {
		r := gen.MustGenerate(g, gen.Options{TargetSize: 200, Seed: seed})
		s, err := buildSKL(r, skeleton.TCL)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		live := r.Graph.LiveVertices()
		for _, v := range live {
			for _, w := range live {
				if s.reach(v, w) != d.Reach(v, w) {
					t.Fatalf("seed %d: SKL and DRL disagree on (%d,%d)", seed, v, w)
				}
			}
		}
	}
}

func BenchmarkSKLBuild(b *testing.B) {
	r := gen.MustGenerate(nonRecursive(b), gen.Options{TargetSize: 8192, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildSKL(r, skeleton.TCL); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Size()), "ns/vertex")
}

func BenchmarkSKLPi(b *testing.B) {
	r := gen.MustGenerate(nonRecursive(b), gen.Options{TargetSize: 8192, Seed: 1})
	s, err := buildSKL(r, skeleton.TCL)
	if err != nil {
		b.Fatal(err)
	}
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(2))
	type pair struct{ a, b *sklLabel }
	pairs := make([]pair, 1024)
	for i := range pairs {
		pairs[i] = pair{
			s.mustLabel(live[rng.Intn(len(live))]),
			s.mustLabel(live[rng.Intn(len(live))]),
		}
	}
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = sink != s.pi(p.a, p.b)
	}
	_ = sink
}

// reach answers reachability between two run vertices.
func (s *sklScheme) reach(v, w graph.VertexID) bool {
	return s.pi(s.mustLabel(v), s.mustLabel(w))
}

// skeletonBits returns the global skeleton's storage (Table 2's
// preprocessing space: 5565 bits for the BioAID global specification
// under TCL).
func (s *sklScheme) skeletonBits() int { return s.global.Bits() }
