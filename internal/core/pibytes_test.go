package core_test

import (
	"errors"
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
// looked at. The labels Pi panics on for where they end — the empty
// label, one that ends on an L or R node — have no encoding at all: a
// cursor ends a label on its last N entry, and Encode refuses them. The
// labels are RunningExample's: g0 = s0 → L → t0, L's copies are
// h1 = s1 → F → t1, F's are h2 = s2 → A → t2, and A's recursion chain
// may hold h3 = s3 → B → C → t3, h4 and h6.
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
	good := codec.Encode(labelOf(root, special(0, label.L), n(1, 1, 0)))
	// The A slot of the first fork copy: expanded by an instance of h3
	// and by one of h4, the two index paths agree, which no pair of
	// labels of one run can do; and by an R node, whose chain may hold
	// h3 = s3 → B → C → t3 (C designated), h4 = s4 → t4 (none) and
	// h6 = s6 → A → t6 (A designated).
	toA := []label.Entry{root, special(0, label.L), n(1, 1, 1), special(0, label.F), n(1, 2, 1)}
	chain := append(toA[:5:5], special(0, label.R))
	for name, bad := range map[string]label.Label{
		"empty":             {},
		"ends on an L node": labelOf(root, special(0, label.L)),
		"ends on an R node": labelOf(chain...),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Encode did not refuse it", name)
				}
			}()
			codec.Encode(bad)
		}()
	}
	for name, bad := range map[string]label.Label{
		"earlier member has no designated vertex": labelOf(append(chain[:6:6], n(0, 4, 0))...),
		"ancestors in two graphs":                 labelOf(append(toA[:5:5], n(0, 3, 0))...),
	} {
		other := good
		switch name {
		case "earlier member has no designated vertex":
			other = codec.Encode(labelOf(append(chain[:6:6], n(1, 3, 0))...))
		case "ancestors in two graphs":
			other = codec.Encode(labelOf(append(toA[:5:5], n(0, 4, 0))...))
		}
		if _, err := core.PiBytes(codec, skel, codec.Encode(bad), other); err == nil {
			t.Errorf("%s (first): no error", name)
		}
		if _, err := core.PiBytes(codec, skel, other, codec.Encode(bad)); err == nil {
			t.Errorf("%s (second): no error", name)
		}
	}
	for _, bad := range [][]byte{nil, {0x12, 0}} {
		if _, err := core.PiBytes(codec, skel, bad, good); err == nil {
			t.Errorf("%x: no error", bad)
		}
	}
	// A value the grammar does not hold is an error where it is read.
	deep := codec.Encode(deepLabel(8))
	for name, bad := range outOfRange() {
		if _, err := codec.Decode(bad); err == nil || errors.Is(err, label.ErrTruncated) {
			t.Errorf("%s: Decode: %v", name, err)
		}
		if _, err := core.PiBytes(codec, skel, bad, deep); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Two loop copies diverge at entry 2; cutting the label after it,
	// or scribbling over what follows, changes nothing.
	a := codec.Encode(labelOf(root, special(0, label.L), n(1, 1, 1), special(0, label.F), n(2, 2, 0)))
	b := codec.Encode(labelOf(root, special(0, label.L), n(2, 1, 1), special(0, label.F), n(1, 2, 2)))
	// The root and the L node store nothing (g0 alone, at index 0; g0's
	// one slot), and entry 2 its position 2 in 5 bits (no type, no
	// choice: L's copies are all h1). The first byte goes on with the
	// fork copy's position code 1001, so cut there its last one bit is
	// the stop bit: the label ends with entry 2.
	cut := 1
	for _, b := range [][]byte{b, b[:cut], append(append([]byte(nil), b[:cut]...), 0xFF, 0xFF, 0xFF)} {
		if ok, err := core.PiBytes(codec, skel, a, b); err != nil || !ok {
			t.Fatalf("earlier loop copy against %x: %v, %v", b, ok, err)
		}
		if ok, err := core.PiBytes(codec, skel, b, a); err != nil || ok {
			t.Fatalf("later loop copy %x against earlier: %v, %v", b, ok, err)
		}
	}
	if _, err := core.PiBytes(codec, skel, a, b[:cut-1]); err == nil {
		t.Fatal("label cut before the divergent entry: no error")
	}
	// Below an R node the earlier member decides, and an interior one's
	// origin is the slot the entry after it ranks: s5 in the B slot of
	// an h3 member reaches the h6 member that expands its C (B;C in h3),
	// and not the other way round. That entry is read, so a label cut
	// anywhere before its end is an error or answers as Pi on the label
	// the cut decodes to, never a panic.
	early := codec.Encode(labelOf(append(chain[:6:6], n(0, 3, 1), n(0, 5, 0))...))
	late := codec.Encode(labelOf(append(chain[:6:6], n(1, 6, 0))...))
	if ok, err := core.PiBytes(codec, skel, early, late); err != nil || !ok {
		t.Fatalf("s5 of the earlier member against s6 of the later: %v, %v", ok, err)
	}
	if ok, err := core.PiBytes(codec, skel, late, early); err != nil || ok {
		t.Fatalf("s6 of the later member against s5 of the earlier: %v, %v", ok, err)
	}
	lateLabel, _ := codec.Decode(late)
	for cut := range len(early) {
		cutLabel, decodes := codec.Decode(early[:cut])
		for i, pair := range [][2][]byte{{early[:cut], late}, {late, early[:cut]}} {
			got, err := core.PiBytes(codec, skel, pair[0], pair[1])
			switch {
			case decodes != nil && err == nil:
				t.Fatalf("earlier member's label cut to %d of %d bytes (%d): no error", cut, len(early), i)
			case decodes == nil && (err != nil || got != core.Pi(skel, [2]label.Label{cutLabel, lateLabel}[i], [2]label.Label{lateLabel, cutLabel}[i])):
				t.Fatalf("earlier member's label cut to %d of %d bytes, %s (%d): %v, %v", cut, len(early), cutLabel, i, got, err)
			}
		}
	}
}

// TestPiBytesAllocatesNothing pins the zero on the query path: on
// sampled pairs of an agent-grammar run, and on pairs whose common
// ancestor is an R node with an interior earlier member, where the walk
// reads one entry further.
func TestPiBytesAllocatesNothing(t *testing.T) {
	pr := piRuns()[1]
	d, err := core.LabelRun(pr.r, skeleton.TCL, pr.mode)
	if err != nil {
		t.Fatal(err)
	}
	codec := label.NewCodec(pr.r.Grammar)
	var labels []label.Label
	var enc [][]byte
	for _, v := range pr.r.Graph.LiveVertices() {
		labels = append(labels, d.MustLabel(v))
		enc = append(enc, codec.Encode(labels[len(labels)-1]))
	}
	var sampled, chain [][2][]byte
	for i := range enc {
		j := (i*7 + 3) % len(enc)
		sampled = append(sampled, [2][]byte{enc[i], enc[j]})
		if _, _, ok := chainPair(labels[i], labels[j]); ok {
			chain = append(chain, [2][]byte{enc[i], enc[j]})
		}
	}
	if len(chain) == 0 {
		t.Fatal("no pair meets below an R node through an interior earlier member")
	}
	for name, pairs := range map[string][][2][]byte{"sampled": sampled, "R ancestor, interior earlier member": chain} {
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			p := pairs[i%len(pairs)]
			if _, err := core.PiBytes(codec, d.Skeleton(), p[0], p[1]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s pairs: PiBytes allocates %v times per pair", name, allocs)
		}
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
	// The encoding's edges: two loop copies at position codes from the
	// shortest to the longest (59 bits, more than one refill of the
	// reader's window), and the deepest label against its sibling.
	n := func(idx int32, gr, v int) label.Entry {
		return label.Entry{Index: idx, Type: label.N, Skl: spec.VertexRef{Graph: spec.GraphID(gr), V: graph.VertexID(v)}}
	}
	loop := label.Entry{Index: 0, Type: label.L, Skl: spec.NoRef}
	for _, idx := range []int32{0, 1, 2, 1 << 30, 1<<31 - 1} {
		f.Add(codec.Encode(labelOf(n(0, 0, 1), loop, n(idx, 1, 0))), codec.Encode(labelOf(n(0, 0, 1), loop, n(idx/2, 1, 2))))
	}
	deep := deepLabel(label.MaxEntries)
	f.Add(codec.Encode(deep), codec.Encode(siblingOf(deep)))
	// Each value the grammar does not hold, in the first label: an
	// implementation choice past its set, an interior entry naming a
	// graph without composite vertices, a leaf rank past its set's
	// atomic vertices.
	for _, bad := range outOfRange() {
		f.Add(bad, codec.Encode(deep))
	}
	// Where the stop bit puts a label's end: a stop bit alone, bytes
	// without one, and a label with one byte more, which is another
	// label or none.
	f.Add([]byte{0x80}, codec.Encode(deep))
	f.Add([]byte{0x12, 0x00}, codec.Encode(deep))
	f.Add(append(codec.Encode(deep), 0x01), codec.Encode(siblingOf(deep)))
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
