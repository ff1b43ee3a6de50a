package bench

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// insertAll feeds a DAG to the labeler in topological order.
func insertAll(t testing.TB, g *graph.Graph) *tclLabeler {
	t.Helper()
	l := newTCLLabeler()
	for _, v := range g.TopoOrder() {
		if _, err := l.insert(v, g.In(v)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestTCLDynMatchesGroundTruthOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomDAG(rng, 15+rng.Intn(25), 0.25)
		l := insertAll(t, g)
		for v := 0; v < g.NumVertices(); v++ {
			for w := 0; w < g.NumVertices(); w++ {
				got, err := l.reach(graph.VertexID(v), graph.VertexID(w))
				if err != nil {
					t.Fatal(err)
				}
				if want := g.Reaches(graph.VertexID(v), graph.VertexID(w)); got != want {
					t.Fatalf("trial %d: π(%d,%d)=%v, want %v", trial, v, w, got, want)
				}
			}
		}
	}
}

func TestTCLDynQuickProperty(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, 20, 0.3)
		l := newTCLLabeler()
		for _, v := range g.TopoOrder() {
			if _, err := l.insert(v, g.In(v)); err != nil {
				return false
			}
		}
		v := graph.VertexID(int(a) % 20)
		w := graph.VertexID(int(b) % 20)
		got, err := l.reach(v, w)
		return err == nil && got == g.Reaches(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTCLDynDiamond labels the smallest DAG that is not a tree: the
// diamond 0 → {1, 2} → 3, whose four labels are 0..3 bits long.
func TestTCLDynDiamond(t *testing.T) {
	l := newTCLLabeler()
	for _, ins := range []struct {
		v     graph.VertexID
		preds []graph.VertexID
	}{{0, nil}, {1, []graph.VertexID{0}}, {2, []graph.VertexID{0}}, {3, []graph.VertexID{1, 2}}} {
		if _, err := l.insert(ins.v, ins.preds); err != nil {
			t.Fatal(err)
		}
	}
	r03, err03 := l.reach(0, 3)
	r12, err12 := l.reach(1, 2)
	if err03 != nil || err12 != nil || !r03 || r12 || l.maxBits() != 3 {
		t.Fatalf("reach(0,3), reach(1,2), maxBits = %v %v %d (%v, %v), want true false 3",
			r03, r12, l.maxBits(), err03, err12)
	}
}

func TestTCLDynLabelLengthsAreTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomDAG(rng, 40, 0.2)
	l := insertAll(t, g)
	// Section 3.2: the i-th vertex's label has i-1 bits; the maximum is
	// n-1 and the total n(n-1)/2.
	if l.maxBits() != 39 {
		t.Fatalf("maxBits = %d, want 39", l.maxBits())
	}
	total := 0
	for i, v := range g.TopoOrder() {
		lab, ok := l.byID[v]
		if !ok || lab.bitLen() != i {
			t.Fatalf("vertex %d: bitLen = %d, want %d", v, lab.bitLen(), i)
		}
		total += lab.bitLen()
	}
	if total != 40*39/2 {
		t.Fatalf("total bits = %d, want %d", total, 40*39/2)
	}
}

func TestTCLDynOnWorkflowRuns(t *testing.T) {
	// The scheme also labels executions of workflow runs (it ignores
	// the grammar entirely) — the paper's point that it costs n-1 bits
	// where DRL costs O(log n).
	g := spec.MustCompile(wfspecs.RunningExample())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 200, Seed: 4})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	l := newTCLLabeler()
	for _, ev := range evs {
		if _, err := l.insert(ev.V, ev.Preds); err != nil {
			t.Fatal(err)
		}
	}
	if l.maxBits() != r.Size()-1 {
		t.Fatalf("maxBits = %d, want %d", l.maxBits(), r.Size()-1)
	}
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 2000; k++ {
		v := live[rng.Intn(len(live))]
		w := live[rng.Intn(len(live))]
		got, err := l.reach(v, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Graph.Reaches(v, w); got != want {
			t.Fatalf("π(%d,%d)=%v, want %v", v, w, got, want)
		}
	}
}

func TestTCLDynErrors(t *testing.T) {
	l := newTCLLabeler()
	if _, err := l.insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.insert(0, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := l.insert(1, []graph.VertexID{42}); err == nil {
		t.Fatal("unknown predecessor accepted")
	}
	if _, err := l.reach(0, 42); err == nil {
		t.Fatal("reach with unknown vertex accepted")
	}
	if _, err := l.reach(42, 0); err == nil {
		t.Fatal("reach with unknown vertex accepted")
	}
	if len(l.labels) != 1 {
		t.Fatalf("%d labels after one good insert", len(l.labels))
	}
}

func TestTCLDynEmptyLabelerStats(t *testing.T) {
	if l := newTCLLabeler(); l.maxBits() != 0 || len(l.labels) != 0 {
		t.Fatal("empty labeler stats wrong")
	}
}

// BenchmarkTCLDynInsert shows the Θ(n) scheme's quadratic total cost:
// each insertion ORs predecessor bitsets of Θ(n/64) words.
func BenchmarkTCLDynInsert(b *testing.B) {
	g := graph.RandomDAG(rand.New(rand.NewSource(1)), 2000, 0.01)
	order := g.TopoOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := newTCLLabeler()
		for _, v := range order {
			if _, err := l.insert(v, g.In(v)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(order)), "ns/insert")
}

func BenchmarkTCLDynPi(b *testing.B) {
	l := insertAll(b, graph.RandomDAG(rand.New(rand.NewSource(1)), 2000, 0.01))
	rng := rand.New(rand.NewSource(2))
	type pair struct{ a, b *tclLabel }
	pairs := make([]pair, 1024)
	for i := range pairs {
		pairs[i] = pair{l.byID[graph.VertexID(rng.Intn(2000))], l.byID[graph.VertexID(rng.Intn(2000))]}
	}
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = sink != tclPi(p.a, p.b)
	}
	_ = sink
}

// bitLen returns the label length in bits: i-1 for the i-th vertex
// (1-based), exactly as Section 3.2 accounts it.
func (l *tclLabel) bitLen() int { return l.index }

// maxBits returns the longest label: n-1 bits after n insertions,
// matching the tight bound of Section 3.2.
func (t *tclLabeler) maxBits() int {
	if len(t.labels) == 0 {
		return 0
	}
	return len(t.labels) - 1
}

// tclPi decides reachability from two labels alone (Section 3.2): with
// i = |φ(v)|+1 and i' = |φ(v')|+1, v reaches v' iff i = i', or i < i'
// and bit i of φ(v') is set.
func tclPi(a, b *tclLabel) bool {
	if a.index == b.index {
		return true // same vertex (reflexive reachability)
	}
	if a.index > b.index {
		return false
	}
	return b.bits[a.index/64]&(1<<(uint(a.index)%64)) != 0
}

// reach is tclPi over the labeler's own records.
func (t *tclLabeler) reach(v, w graph.VertexID) (bool, error) {
	a, ok := t.byID[v]
	if !ok {
		return false, fmt.Errorf("tcldyn: vertex %d not inserted", v)
	}
	b, ok := t.byID[w]
	if !ok {
		return false, fmt.Errorf("tcldyn: vertex %d not inserted", w)
	}
	return tclPi(a, b), nil
}
