package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// chainPair reports whether π on lv, lw meets their common ancestor at
// an R node with the earlier chain member interior — the case where
// PiBytes reads one entry past the divergence, in the earlier label —
// with the member's position and whether its label is lv.
func chainPair(lv, lw label.Label) (member int, first, ok bool) {
	ev, ew := lv.Entries, lw.Entries
	i := 0
	for i+1 < len(ev) && i+1 < len(ew) && ev[i+1].Index == ew[i+1].Index {
		i++
	}
	if ev[i].Type != label.R || i+1 >= len(ev) || i+1 >= len(ew) {
		return 0, false, false
	}
	first = ev[i+1].Index < ew[i+1].Index
	if first {
		return i + 1, true, i+2 < len(ev)
	}
	return i + 1, false, i+2 < len(ew)
}

// TestRecFlagsArePiOnTheSkeleton is the oracle for the recursion flags
// labels no longer store. On every label issued (both labelers, both R
// modes, BioAID, the agent grammar, random linear and nonlinear
// grammars): the flags π derives from the bytes for each chain member
// whose graph has a designated recursive vertex w are skel.Pi between
// the issued entry's origin and w, from the origin the bytes imply.
// And on sampled pairs — every pair whose common ancestor is an R node
// with an interior earlier member among them — PiBytes, Pi and
// breadth-first search agree; cut anywhere, the earlier label is an
// error or the label the cut bytes decode to, never a panic.
func TestRecFlagsArePiOnTheSkeleton(t *testing.T) {
	members, chainPairs, cuts := 0, 0, 0
	issuedLabels(t, func(name string, r *run.Run, skel *skeleton.Scheme, labels map[graph.VertexID]label.Label) {
		g := r.Grammar
		codec := label.NewCodec(g)
		enc := make(map[graph.VertexID][]byte, len(labels))
		var vs []graph.VertexID
		for v, l := range labels {
			enc[v] = codec.Encode(l)
			vs = append(vs, v)
			for k := 1; k < l.Len(); k++ {
				m := l.Entries[k]
				if l.Entries[k-1].Type != label.R || g.Designated(m.Skl.Graph) == graph.None {
					continue
				}
				w := spec.VertexRef{Graph: m.Skl.Graph, V: g.Designated(m.Skl.Graph)}
				origin, rec1, rec2, err := core.RecFlags(codec, skel, enc[v], k)
				if err != nil || origin != m.Skl || rec1 != skel.Pi(m.Skl, w) || rec2 != skel.Pi(w, m.Skl) {
					t.Fatalf("%s: %s: member %d's origin %v and flags (%v, %v), %v; issued %v, π gives (%v, %v)",
						name, l, k, origin, rec1, rec2, err, m.Skl, skel.Pi(m.Skl, w), skel.Pi(w, m.Skl))
				}
				members++
			}
		}
		slices.Sort(vs)
		rng := rand.New(rand.NewSource(int64(len(vs))))
		for _, u := range vs {
			for range 16 {
				w := vs[rng.Intn(len(vs))]
				_, first, ok := chainPair(labels[u], labels[w])
				if !ok && rng.Intn(8) != 0 {
					continue
				}
				want := r.Graph.Reaches(u, w)
				got, err := core.PiBytes(codec, skel, enc[u], enc[w])
				if err != nil || got != want || core.Pi(skel, labels[u], labels[w]) != want {
					t.Fatalf("%s: π(%d,%d): PiBytes %v, %v; Pi %v; BFS %v\n%s\n%s", name, u, w, got, err, core.Pi(skel, labels[u], labels[w]), want, labels[u], labels[w])
				}
				if !ok {
					continue
				}
				chainPairs++
				if chainPairs%8 == 1 {
					cuts += checkCuts(t, name, codec, skel, enc[u], enc[w], first)
				}
			}
		}
	})
	t.Logf("%d chain members, %d pairs through an interior earlier member, %d cuts of the earlier label that decode", members, chainPairs, cuts)
	if members == 0 || chainPairs == 0 || cuts == 0 {
		t.Fatalf("%d chain members, %d pairs below an R node with an interior earlier member, %d cuts that decode: the corpus lost its recursion", members, chainPairs, cuts)
	}
}

// checkCuts cuts the earlier label of a pair whose common ancestor is an
// R node with an interior earlier member — a if first, else b — to every
// shorter length. A label does not store its length, so a cut is an
// error or another label: PiBytes never panics, and where both labels
// decode it answers as Pi does on them, and errs where Pi panics. It
// returns the number of cuts that decode.
func checkCuts(t *testing.T, name string, codec *label.Codec, skel *skeleton.Scheme, a, b []byte, first bool) int {
	t.Helper()
	earlier := b
	if first {
		earlier = a
	}
	cuts := 0
	for cut := range len(earlier) {
		x, y := earlier[:cut], b
		if !first {
			x, y = a, earlier[:cut]
		}
		got, err := core.PiBytes(codec, skel, x, y)
		lx, errX := codec.Decode(x)
		ly, errY := codec.Decode(y)
		if errX != nil || errY != nil {
			continue
		}
		cuts++
		want, panicked := func() (ok, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return core.Pi(skel, lx, ly), false
		}()
		if panicked != (err != nil) || got != want {
			t.Fatalf("%s: earlier label cut to %d of %d bytes: PiBytes %v, %v; Pi on %s and %s: %v (panicked: %v)", name, cut, len(earlier), got, err, lx, ly, want, panicked)
		}
	}
	return cuts
}
