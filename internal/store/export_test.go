package store

import (
	"fmt"

	"wfreach/internal/arena"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// NewFromArena builds a store over an already-open arena snapshot; see
// AttachArena for the ownership contract.
func NewFromArena(g *spec.Grammar, kind skeleton.Kind, a *arena.Arena) (*Store, error) {
	s := New(g, kind)
	if err := s.AttachArena(a, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode encodes a label with the store's codec without storing it.
func (s *Store) Encode(l label.Label) []byte { return s.codec.Encode(l) }

// Reach answers v ;* w from the stored bytes alone, lock-free.
func (s *Store) Reach(v, w graph.VertexID) (bool, error) {
	bv, ok := s.GetRaw(v)
	if !ok {
		return false, fmt.Errorf("store: vertex %d: %w", v, ErrNotStored)
	}
	bw, ok := s.GetRaw(w)
	if !ok {
		return false, fmt.Errorf("store: vertex %d: %w", w, ErrNotStored)
	}
	return s.ReachBytes(bv, bw)
}
