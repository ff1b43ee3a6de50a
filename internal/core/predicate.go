package core

import (
	"errors"
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// Pi is the binary predicate of Algorithm 4: given the reachability
// labels of two run vertices v and v′, it reports v ;* v′ using only
// the labels and the skeleton scheme. It runs in O(d_t) time — O(1)
// for a fixed grammar (Theorem 3, part 3).
//
// The two labels share a prefix of entries describing their common
// ancestors in the explicit parse tree (indexes uniquely identify tree
// paths). Let i be the last position where the index paths agree: the
// node at i is the least common ancestor of the two contexts, and its
// type dispatches Lemma 4.2's four cases (see lca). A label pair no
// labeler can issue — an empty label, a path ending on a special node —
// is a caller bug and panics; PiBytes is the walker for bytes that
// come from outside.
func Pi(skel *skeleton.Scheme, lv, lw label.Label) bool {
	ev, ew := lv.Entries, lw.Entries
	if len(ev) == 0 || len(ew) == 0 {
		panic(errEmptyLabel)
	}
	// Find i: indexes at i agree, indexes at i+1 differ or one path (or
	// both — the equal-path case) has ended.
	i := 0
	for i+1 < len(ev) && i+1 < len(ew) && ev[i+1].Index == ew[i+1].Index {
		i++
	}
	var nv, nw *label.Entry
	if i+1 < len(ev) {
		nv = &ev[i+1]
	}
	if i+1 < len(ew) {
		nw = &ew[i+1]
	}
	ok, err := lca(skel, &ev[i], &ew[i], nv, nw)
	if err != nil {
		panic(err)
	}
	return ok
}

// PiBytes is π evaluated directly on two encoded labels: two cursors
// step through the bytes in lockstep and stop at the first position
// where the index paths diverge — one entry further in the label whose
// recursion-chain member decides an R ancestor, when that member is
// interior, for the slot that names its origin — so nothing is decoded
// into a Label, nothing is allocated, and arena-mapped bytes are read
// where they lie. It agrees with Pi on the decoded labels wherever Pi
// is defined.
//
// Bytes are outside input, so nothing here panics: bytes without a stop
// bit, an entry cut short, an index, implementation choice or leaf rank
// the grammar does not hold, or a chain member whose graph has no
// designated recursive vertex is a returned error — when it lies on the
// walked prefix. Bytes past it are deliberately not parsed; the
// integrity of stored bytes is the CRC, hash-chain and Merkle layers'
// job, not the query's.
func PiBytes(c *label.Codec, skel *skeleton.Scheme, bv, bw []byte) (bool, error) {
	var cv, cw label.Cursor
	errV, errW := cv.Reset(c, bv), cw.Reset(c, bw)
	// Two entries per label, used in turn: one holds the entry at the
	// last position where the paths agree (the roots, to begin with),
	// the other receives the entry one below it.
	var ev, ew [2]label.Entry
	for i, root := 0, true; errV == nil && errW == nil; i, root = i^1, false {
		var okV, okW bool
		okV, errV = cv.Next(&ev[i])
		okW, errW = cw.Next(&ew[i])
		if errV != nil || errW != nil {
			break
		}
		if okV && okW && (root || ev[i].Index == ew[i].Index) {
			continue
		}
		av, aw, nv, nw := &ev[i^1], &ew[i^1], &ev[i], &ew[i]
		if !okV {
			nv = nil
		}
		if !okW {
			nw = nil
		}
		// An interior N entry's origin is the slot the entry below it
		// ranks, which its cursor has just read. Below an R ancestor the
		// earlier chain member decides, so its cursor reads one entry
		// further where that member is interior.
		var scratch label.Entry
		switch {
		case av.Type == label.N:
			if nv != nil {
				av.Skl.V = cv.Origin()
			}
			if nw != nil {
				aw.Skl.V = cw.Origin()
			}
		case av.Type != label.R || nv == nil || nw == nil:
		case nv.Index < nw.Index:
			errV = below(&cv, nv, &scratch)
		default:
			errW = below(&cw, nw, &scratch)
		}
		if errV != nil || errW != nil {
			break
		}
		return lca(skel, av, aw, nv, nw)
	}
	if errV != nil {
		return false, fmt.Errorf("core: first label: %w", errV)
	}
	return false, fmt.Errorf("core: second label: %w", errW)
}

// below fills in the origin of m, the last entry cu yielded, where its
// label goes on: it parses the next entry into scratch, whose index
// ranks the slot m's label descends through.
func below(cu *label.Cursor, m, scratch *label.Entry) error {
	if ok, err := cu.Next(scratch); !ok || err != nil {
		return err
	}
	m.Skl.V = cu.Origin()
	return nil
}

var (
	errEmptyLabel   = errors.New("core: π on an empty label")
	errEndsOnNode   = errors.New("core: label path ends on a special node")
	errNoDesignated = errors.New("core: the earlier recursion-chain member's graph has no designated recursive vertex")
	errSkeletonPair = errors.New("core: the origins at the common ancestor are not two vertices of one graph")
)

// lca is the one definition of Lemma 4.2's four-case dispatch, shared
// by the slice walker (Pi) and the byte walker (PiBytes). av and aw are
// the two labels' entries at the last position where their index paths
// agree — the least common ancestor of the two contexts — and nv, nw
// the entries one level below it, nil where a label ends there. The
// ancestor's type decides:
//
//	L: v reaches v′ iff v's loop copy precedes v′'s;
//	F: distinct fork copies never reach each other;
//	R: the recursion flags of the earlier chain member decide;
//	N: the skeleton labels of the two origins decide.
//
// An origin is the vertex an N entry names: its leaf, or for an
// interior entry the slot its label descends through, which a decoded
// label holds and a cursor yields only once past the entry below
// (PiBytes fills it in).
func lca(skel *skeleton.Scheme, av, aw, nv, nw *label.Entry) (bool, error) {
	switch av.Type {
	case label.L:
		// Both labels continue below the L node (run vertices never
		// live on special nodes), in distinct copies.
		if nv == nil || nw == nil {
			return false, errEndsOnNode
		}
		return nv.Index < nw.Index, nil
	case label.F:
		return false, nil
	case label.R:
		if nv == nil || nw == nil {
			return false, errEndsOnNode
		}
		if nv.Index < nw.Index {
			return recFlag(skel, nv, true)
		}
		return recFlag(skel, nw, false)
	default: // label.N
		// The LCA is an instance; the origins are the composite vertices
		// the labels descend through, or — where a label ends there —
		// the vertex its last entry names.
		if !isVertex(av.Skl) || !isVertex(aw.Skl) || av.Skl.Graph != aw.Skl.Graph {
			return false, errSkeletonPair
		}
		return skel.Pi(av.Skl, aw.Skl), nil
	}
}

// recFlag is Algorithm 1's recursion flag of m, the earlier of two
// recursion-chain members below a common R node. Everything in a later
// member is derived from the designated recursive vertex w of m's
// graph, so rec1 — m's origin reaches w — decides when m is v's member
// (first), and rec2 — w reaches m's origin — when it is v′'s.
func recFlag(skel *skeleton.Scheme, m *label.Entry, first bool) (bool, error) {
	if !isVertex(m.Skl) {
		return false, errSkeletonPair
	}
	w := spec.VertexRef{Graph: m.Skl.Graph, V: skel.Grammar().Designated(m.Skl.Graph)}
	switch {
	case w.V == graph.None:
		return false, errNoDesignated
	case first:
		return skel.Pi(m.Skl, w), nil
	}
	return skel.Pi(w, m.Skl), nil
}

// isVertex reports whether ref names a vertex: not the null reference
// of a special entry, nor an interior entry's graph alone.
func isVertex(ref spec.VertexRef) bool { return !ref.IsZero() && ref.V != graph.None }
