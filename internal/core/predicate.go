package core

import (
	"errors"
	"fmt"

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
// where the index paths diverge, so nothing is decoded into a Label,
// nothing is allocated, and arena-mapped bytes are read where they
// lie. It agrees with Pi on the decoded labels wherever Pi is defined.
//
// Bytes are outside input, so nothing here panics: an empty label, an
// entry cut short, an index, implementation choice or leaf rank the
// grammar does not hold, a missing recursion flag or a path ending on a
// special node is a returned error — when it lies on the walked prefix.
// Bytes past the divergence are deliberately not parsed; the integrity
// of stored bytes is the CRC, hash-chain and Merkle layers' job, not the
// query's.
func PiBytes(c *label.Codec, skel *skeleton.Scheme, bv, bw []byte) (bool, error) {
	var cv, cw label.Cursor
	errV, errW := cv.Reset(c, bv), cw.Reset(c, bw)
	if errV == nil && cv.Len() == 0 {
		errV = errEmptyLabel
	}
	if errW == nil && cw.Len() == 0 {
		errW = errEmptyLabel
	}
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
		nv, nw := &ev[i], &ew[i]
		if !okV {
			nv = nil
		}
		if !okW {
			nw = nil
		}
		return lca(skel, &ev[i^1], &ew[i^1], nv, nw)
	}
	if errV != nil {
		return false, fmt.Errorf("core: first label: %w", errV)
	}
	return false, fmt.Errorf("core: second label: %w", errW)
}

var (
	errEmptyLabel   = errors.New("core: π on an empty label")
	errEndsOnNode   = errors.New("core: label path ends on a special node")
	errNoRecFlags   = errors.New("core: earlier recursion-chain member lacks flags")
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
//	R: the recursion flags of the shallower chain member decide;
//	N: the skeleton labels of the two origins decide.
//
// An N ancestor's origins come from nv and nw, or from the leaf field:
// an encoded interior N entry names its graph only.
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
		// Everything in a later chain member is derived from the
		// designated recursive vertex w of any earlier member;
		// rec1/rec2 pre-encode origin-vs-w reachability.
		if nv == nil || nw == nil {
			return false, errEndsOnNode
		}
		earlier, flag := nv, nv.Rec1
		if nv.Index >= nw.Index {
			earlier, flag = nw, nw.Rec2
		}
		if !earlier.HasRec {
			return false, errNoRecFlags
		}
		return flag, nil
	default: // label.N
		// The LCA is an instance; the origins are the composite vertices
		// the entries below it rank, or — where a label ends there — the
		// vertex its last entry names.
		ov, okV := origin(skel.Grammar(), av, nv)
		ow, okW := origin(skel.Grammar(), aw, nw)
		if !okV || !okW || ov.Graph != ow.Graph {
			return false, errSkeletonPair
		}
		return skel.Pi(ov, ow), nil
	}
}

// origin returns the vertex of the LCA instance a label descends
// through: the composite whose slot rank is the index of the label's
// entry n below the LCA's entry a, or a's own vertex when there is no n.
func origin(g *spec.Grammar, a, n *label.Entry) (spec.VertexRef, bool) {
	if n == nil || a.Skl.IsZero() {
		return a.Skl, !a.Skl.IsZero()
	}
	v, _, ok := g.Slot(a.Skl.Graph, n.Index, false)
	return spec.VertexRef{Graph: a.Skl.Graph, V: v}, ok
}
