// Package wfxml persists workflow specifications, runs and derivations
// as XML, matching the evaluation setup of Section 7.1 ("All data are
// stored in XML files"). The formats are self-describing and
// round-trip exactly through encoding/xml.
package wfxml

import (
	"encoding/xml"
	"fmt"
	"io"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// xmlSpec is the on-disk form of a specification.
type xmlSpec struct {
	XMLName xml.Name   `xml:"specification"`
	Modules []xmlName  `xml:"module"`
	Graphs  []xmlGraph `xml:"graph"`
}

type xmlName struct {
	Name string `xml:"name,attr"`
	Kind string `xml:"kind,attr"`
}

type xmlGraph struct {
	Label    string      `xml:"label,attr"`
	Owner    string      `xml:"owner,attr,omitempty"`
	Vertices []xmlVertex `xml:"vertex"`
	Edges    []xmlEdge   `xml:"edge"`
}

type xmlVertex struct {
	ID   int    `xml:"id,attr"`
	Name string `xml:"name,attr"`
}

type xmlEdge struct {
	From int `xml:"from,attr"`
	To   int `xml:"to,attr"`
}

// EncodeSpec writes a specification as XML.
func EncodeSpec(w io.Writer, s *spec.Spec) error {
	var x xmlSpec
	for _, name := range s.Names() {
		k := s.Kind(name)
		if k.Composite() {
			x.Modules = append(x.Modules, xmlName{Name: name, Kind: k.String()})
		}
	}
	for _, ng := range s.Graphs() {
		xg := xmlGraph{Label: ng.Label, Owner: ng.Owner}
		g := ng.G
		for v := 0; v < g.NumVertices(); v++ {
			xg.Vertices = append(xg.Vertices, xmlVertex{ID: v, Name: g.Name(graph.VertexID(v))})
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, to := range g.Out(graph.VertexID(v)) {
				xg.Edges = append(xg.Edges, xmlEdge{From: v, To: int(to)})
			}
		}
		x.Graphs = append(x.Graphs, xg)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("wfxml: %w", err)
	}
	return enc.Flush()
}

// DecodeSpec reads a specification from XML and validates it.
func DecodeSpec(r io.Reader) (*spec.Spec, error) {
	var x xmlSpec
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	b := spec.NewBuilder()
	for _, m := range x.Modules {
		switch m.Kind {
		case "plain":
			b.Composite(m.Name)
		case "loop":
			b.Loop(m.Name)
		case "fork":
			b.Fork(m.Name)
		case "atomic":
			b.Atomic(m.Name)
		default:
			return nil, fmt.Errorf("wfxml: unknown module kind %q", m.Kind)
		}
	}
	for i, xg := range x.Graphs {
		g := graph.New()
		for j, v := range xg.Vertices {
			if v.ID != j {
				return nil, fmt.Errorf("wfxml: graph %s has non-dense vertex ids", xg.Label)
			}
			g.AddVertex(v.Name)
		}
		for _, e := range xg.Edges {
			if err := g.AddEdge(graph.VertexID(e.From), graph.VertexID(e.To)); err != nil {
				return nil, fmt.Errorf("wfxml: graph %s: %w", xg.Label, err)
			}
		}
		if i == 0 {
			if xg.Owner != "" {
				return nil, fmt.Errorf("wfxml: first graph %s must be the start graph", xg.Label)
			}
			b.Start(xg.Label, g)
		} else {
			b.Implement(xg.Owner, xg.Label, g)
		}
	}
	return b.Build()
}

// xmlRun is the on-disk form of a completed run: its vertices (with
// their specification mapping) and edges, plus the derivation that
// produced it.
type xmlRun struct {
	XMLName  xml.Name    `xml:"run"`
	Vertices []xmlRunV   `xml:"vertex"`
	Edges    []xmlEdge   `xml:"edge"`
	Steps    []xmlStep   `xml:"step"`
	StartIDs []xmlRef    `xml:"start>ref"`
	Tomb     []xmlVertex `xml:"tombstone"`
}

type xmlRunV struct {
	ID    int `xml:"id,attr"`
	Graph int `xml:"graph,attr"`
	Spec  int `xml:"spec,attr"`
}

type xmlRef struct {
	ID int `xml:"id,attr"`
}

type xmlStep struct {
	Target int          `xml:"target,attr"`
	Impl   int          `xml:"impl,attr"`
	Copies int          `xml:"copies,attr"`
	IDs    []xmlCopyRow `xml:"copy"`
}

type xmlCopyRow struct {
	IDs []int `xml:"v"`
}

// EncodeRun writes a run (graph, spec mapping and derivation) as XML.
func EncodeRun(w io.Writer, r *run.Run) error {
	var x xmlRun
	for v := 0; v < r.Graph.NumVertices(); v++ {
		vid := graph.VertexID(v)
		ref := r.SpecOf[v]
		if r.Graph.IsTombstone(vid) {
			x.Tomb = append(x.Tomb, xmlVertex{ID: v})
			continue
		}
		x.Vertices = append(x.Vertices, xmlRunV{ID: v, Graph: int(ref.Graph), Spec: int(ref.V)})
	}
	for v := 0; v < r.Graph.NumVertices(); v++ {
		for _, to := range r.Graph.Out(graph.VertexID(v)) {
			x.Edges = append(x.Edges, xmlEdge{From: v, To: int(to)})
		}
	}
	for _, id := range r.StartIDs {
		x.StartIDs = append(x.StartIDs, xmlRef{ID: int(id)})
	}
	for _, st := range r.Steps {
		xs := xmlStep{Target: int(st.Target), Impl: int(st.Impl), Copies: st.Copies}
		for _, row := range st.IDs {
			xr := xmlCopyRow{}
			for _, id := range row {
				xr.IDs = append(xr.IDs, int(id))
			}
			xs.IDs = append(xs.IDs, xr)
		}
		x.Steps = append(x.Steps, xs)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("wfxml: %w", err)
	}
	return enc.Flush()
}

// DecodeRun reads a run for the given grammar by replaying its
// recorded derivation, then verifies the replay matches the stored
// graph.
func DecodeRun(rd io.Reader, g *spec.Grammar) (*run.Run, error) {
	var x xmlRun
	if err := xml.NewDecoder(rd).Decode(&x); err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	r := run.New(g)
	graphs := g.Spec().Graphs()
	for _, xs := range x.Steps {
		// Check the step's shape before applying it: Apply allocates
		// copies × |impl| vertices, and a step's id rows are what bound
		// that by the size of the file.
		if xs.Impl < 0 || xs.Impl >= len(graphs) {
			return nil, fmt.Errorf("wfxml: step names graph %d, the grammar has %d", xs.Impl, len(graphs))
		}
		if xs.Copies != len(xs.IDs) {
			return nil, fmt.Errorf("wfxml: step has %d copies and %d id rows", xs.Copies, len(xs.IDs))
		}
		n := graphs[xs.Impl].G.NumVertices()
		for _, row := range xs.IDs {
			if len(row.IDs) != n {
				return nil, fmt.Errorf("wfxml: step copy has %d ids, graph %d has %d vertices", len(row.IDs), xs.Impl, n)
			}
		}
		st, err := r.Apply(graph.VertexID(xs.Target), spec.GraphID(xs.Impl), xs.Copies)
		if err != nil {
			return nil, fmt.Errorf("wfxml: replaying derivation: %w", err)
		}
		// The replay must reproduce the recorded ids (run ids are
		// deterministic given the step sequence).
		for c := range st.IDs {
			for j := range st.IDs[c] {
				if int(st.IDs[c][j]) != xs.IDs[c].IDs[j] {
					return nil, fmt.Errorf("wfxml: vertex ids diverged on replay")
				}
			}
		}
	}
	// Cross-check vertex count and edges.
	liveWant := len(x.Vertices)
	if r.Graph.LiveCount() != liveWant {
		return nil, fmt.Errorf("wfxml: replay has %d vertices, file has %d", r.Graph.LiveCount(), liveWant)
	}
	for _, e := range x.Edges {
		if !r.Graph.HasEdge(graph.VertexID(e.From), graph.VertexID(e.To)) {
			return nil, fmt.Errorf("wfxml: replay misses edge %d->%d", e.From, e.To)
		}
	}
	if r.Graph.NumEdges() != len(x.Edges) {
		return nil, fmt.Errorf("wfxml: replay has %d edges, file has %d", r.Graph.NumEdges(), len(x.Edges))
	}
	return r, nil
}
