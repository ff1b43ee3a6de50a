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

type piRun struct {
	name string
	r    *run.Run
	mode core.RMode
}

// piRuns is the corpus of the three-way equivalence test: the two
// grammars the service is benchmarked on plus the random linear and
// nonlinear grammars of random_test.go, the nonlinear ones in both
// compression modes and both derivation orders.
func piRuns() []piRun {
	gen1 := func(s *spec.Spec, size int, seed int64, deep bool) *run.Run {
		return gen.MustGenerate(spec.MustCompile(s), gen.Options{TargetSize: size, Seed: seed, DepthFirst: deep})
	}
	runs := []piRun{
		{"BioAID", gen1(wfspecs.BioAID(), 500, 3, false), core.RModeDesignated},
		{"Agent", gen1(wfspecs.Agent(), 500, 4, false), core.RModeDesignated},
	}
	for seed := int64(0); seed < 12; seed++ {
		s := wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: int(seed % 4), Loops: int(seed % 3), Forks: int((seed + 1) % 3),
			RecursionLen: int(seed % 4), MaxGraphSize: 5 + int(seed%5), Seed: seed * 1013,
		})
		runs = append(runs, piRun{fmt.Sprintf("linear/%d", seed), gen1(s, 90, seed, false), core.RModeDesignated})
	}
	for seed := int64(0); seed < 8; seed++ {
		s := wfspecs.RandomSpec(wfspecs.RandomParams{
			Plain: int(seed % 3), Loops: int(seed % 2), Forks: int(seed % 2),
			RecursionLen: 1 + int(seed%3), NonlinearRec: true, MaxGraphSize: 6, Seed: seed * 509,
		})
		for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
			for _, deep := range []bool{false, true} {
				runs = append(runs, piRun{fmt.Sprintf("nonlinear/%d/%v/deep=%v", seed, mode, deep), gen1(s, 70, seed, deep), mode})
			}
		}
	}
	return runs
}

// TestPiBytesMatchesPiMatchesBFS: on every sampled pair — both argument
// orders, u == v included — π on the encoded bytes, π on the decoded
// labels and breadth-first search on the run agree, for every skeleton
// kind.
func TestPiBytesMatchesPiMatchesBFS(t *testing.T) {
	for _, pr := range piRuns() {
		g := pr.r.Grammar
		codec := label.NewCodec(g)
		live := pr.r.Graph.LiveVertices()
		for _, kind := range []skeleton.Kind{skeleton.TCL, skeleton.BFS} {
			d, err := core.LabelRun(pr.r, kind, pr.mode)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			enc := make(map[graph.VertexID][]byte, len(live))
			dec := make(map[graph.VertexID]label.Label, len(live))
			for _, v := range live {
				enc[v] = codec.Encode(d.MustLabel(v))
				if dec[v], err = codec.Decode(enc[v]); err != nil {
					t.Fatalf("%s: vertex %d: %v", pr.name, v, err)
				}
			}
			check := func(u, v graph.VertexID) {
				want := pr.r.Graph.Reaches(u, v)
				if got := core.Pi(d.Skeleton(), dec[u], dec[v]); got != want {
					t.Fatalf("%s %v: Pi(%d,%d) = %v, BFS says %v", pr.name, kind, u, v, got, want)
				}
				got, err := core.PiBytes(codec, d.Skeleton(), enc[u], enc[v])
				if err != nil || got != want {
					t.Fatalf("%s %v: PiBytes(%d,%d) = %v, %v; BFS says %v\n%s\n%s", pr.name, kind, u, v, got, err, want, dec[u], dec[v])
				}
			}
			rng := rand.New(rand.NewSource(int64(len(live))))
			for _, u := range live {
				check(u, u)
				for k := 0; k < 40; k++ {
					v := live[rng.Intn(len(live))]
					check(u, v)
					check(v, u)
				}
			}
		}
	}
}

// TestPiBytesErrorsWherePiPanics pins the byte walker's side of the
// contract on labels no labeler issues: what is a panic in Pi is a
// returned error in PiBytes, and damage past the divergence is not
// looked at.
func TestPiBytesErrorsWherePiPanics(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	codec, skel := label.NewCodec(g), skeleton.New(skeleton.TCL, g)
	n := func(idx int32, gr, v int) label.Entry {
		return label.Entry{Index: idx, Type: label.N, Skl: spec.VertexRef{Graph: spec.GraphID(gr), V: graph.VertexID(v)}}
	}
	special := func(idx int32, t label.NodeType) label.Entry {
		return label.Entry{Index: idx, Type: t, Skl: spec.NoRef}
	}
	root := n(0, 0, 1)
	good := codec.Encode(labelOf(root, special(1, label.L), n(1, 1, 0)))
	for name, bad := range map[string]label.Label{
		"empty":                    {},
		"ends on an L node":        labelOf(root, special(1, label.L)),
		"ends on an R node":        labelOf(root, special(1, label.R)),
		"chain member lacks flags": labelOf(root, special(1, label.R), n(1, 3, 0)),
		"ancestors in two graphs":  labelOf(n(0, 1, 0)),
	} {
		other := good
		if name == "chain member lacks flags" {
			other = codec.Encode(labelOf(root, special(1, label.R), n(2, 3, 0)))
		}
		if _, err := core.PiBytes(codec, skel, codec.Encode(bad), other); err == nil {
			t.Errorf("%s (first): no error", name)
		}
		if _, err := core.PiBytes(codec, skel, other, codec.Encode(bad)); err == nil {
			t.Errorf("%s (second): no error", name)
		}
	}
	if _, err := core.PiBytes(codec, skel, nil, good); err == nil {
		t.Error("nil bytes: no error")
	}
	// Two loop copies diverge at entry 2; cutting the label after it,
	// or scribbling over what follows, changes nothing.
	a := codec.Encode(labelOf(root, special(1, label.L), n(1, 1, 0), special(1, label.F), n(2, 2, 0)))
	b := codec.Encode(labelOf(root, special(1, label.L), n(2, 1, 1), special(1, label.F), n(1, 2, 1)))
	cut := len(codec.Encode(labelOf(root, special(1, label.L), n(2, 1, 1))))
	for _, b := range [][]byte{b, b[:cut], append(append([]byte(nil), b[:cut]...), 0xFF, 0xFF, 0xFF)} {
		if ok, err := core.PiBytes(codec, skel, a, b); err != nil || !ok {
			t.Fatalf("earlier loop copy against %x: %v, %v", b, ok, err)
		}
		if ok, err := core.PiBytes(codec, skel, b, a); err != nil || ok {
			t.Fatalf("later loop copy %x against earlier: %v, %v", b, ok, err)
		}
	}
	if _, err := core.PiBytes(codec, skel, a, b[:cut-1]); err == nil {
		t.Fatal("label cut inside the divergent entry: no error")
	}
}

// TestPiBytesAllocatesNothing pins the zero on the query path.
func TestPiBytesAllocatesNothing(t *testing.T) {
	pr := piRuns()[1]
	d, err := core.LabelRun(pr.r, skeleton.TCL, pr.mode)
	if err != nil {
		t.Fatal(err)
	}
	codec := label.NewCodec(pr.r.Grammar)
	var enc [][]byte
	for _, v := range pr.r.Graph.LiveVertices() {
		enc = append(enc, codec.Encode(d.MustLabel(v)))
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := core.PiBytes(codec, d.Skeleton(), enc[i%len(enc)], enc[(i*7+3)%len(enc)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("PiBytes allocates %v times per pair", allocs)
	}
}

// FuzzPiBytes: arbitrary byte pairs never panic the byte walker, and
// whenever both inputs decode it behaves exactly as Pi does on the
// decoded labels — the same answer with a nil error where Pi answers,
// an error where Pi panics.
func FuzzPiBytes(f *testing.F) {
	g := spec.MustCompile(wfspecs.RunningExample())
	codec, skel := label.NewCodec(g), skeleton.New(skeleton.TCL, g)
	r := gen.MustGenerate(g, gen.Options{TargetSize: 60, Seed: 11})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		f.Fatal(err)
	}
	live := r.Graph.LiveVertices()
	for i := 0; i < len(live); i += 4 {
		a, b := codec.Encode(d.MustLabel(live[i])), codec.Encode(d.MustLabel(live[(i*5+2)%len(live)]))
		f.Add(a, b)
		f.Add(a[:len(a)/2], b)
		f.Add(a, b[:len(b)-1])
	}
	f.Add([]byte{}, []byte{0})
	// The encoding's edges: two loop copies at index codes from the
	// shortest to the longest (61 bits, more than one refill of the
	// reader's window), and the deepest label against its sibling.
	n := func(idx int32, gr, v int) label.Entry {
		return label.Entry{Index: idx, Type: label.N, Skl: spec.VertexRef{Graph: spec.GraphID(gr), V: graph.VertexID(v)}}
	}
	loop := label.Entry{Index: 1, Type: label.L, Skl: spec.NoRef}
	for _, idx := range []int32{0, 1, 2, 1 << 30, 1<<31 - 1} {
		f.Add(codec.Encode(labelOf(n(0, 0, 1), loop, n(idx, 1, 0))), codec.Encode(labelOf(n(0, 0, 1), loop, n(idx/2, 1, 1))))
	}
	deep := make([]label.Entry, label.MaxEntries)
	for i := range deep {
		deep[i] = n(int32(i%3), 0, i%2)
	}
	sibling := append(deep[:label.MaxEntries-1:label.MaxEntries-1], n(7, 0, 0))
	f.Add(codec.Encode(labelOf(deep...)), codec.Encode(labelOf(sibling...)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got, err := core.PiBytes(codec, skel, a, b)
		la, errA := codec.Decode(a)
		lb, errB := codec.Decode(b)
		if errA != nil || errB != nil {
			return
		}
		want, panicked := func() (ok, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return core.Pi(skel, la, lb), false
		}()
		if panicked != (err != nil) || got != want {
			t.Fatalf("PiBytes = %v, %v; Pi = %v (panicked: %v)\n%s\n%s", got, err, want, panicked, la, lb)
		}
	})
}
