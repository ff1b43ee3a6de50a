// Package wfxml persists workflow specifications, runs and derivations
// as XML, matching the evaluation setup of Section 7.1 ("All data are
// stored in XML files"). The formats are self-describing. Both are
// written by encoding/xml, and a run is read back by it. A
// specification is read back by DecodeSpec, a one-pass scanner that
// reads what encoding/xml's decoder reads, into the same specification,
// except for constructs EncodeSpec never writes, which it refuses by
// name: <!DOCTYPE and the other directives, CDATA sections, processing
// instructions bar a leading XML declaration of version 1.0 in UTF-8,
// names with a namespace prefix or beyond ASCII, and character data
// other than white space. It reads comments and references.
package wfxml

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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

// MaxSpecBytes caps a specification document: DecodeSpec refuses a
// longer one, a durable session refuses a specification whose spec.xml
// would be longer, and the service caps a create body by it. BioAID's
// is 12.5 KB.
const MaxSpecBytes = 4 << 20

// DecodeSpec reads a specification from XML and validates it. It reads
// the document whole, at most MaxSpecBytes of it, and scans it in one
// pass; see the package comment for what it refuses.
func DecodeSpec(r io.Reader) (*spec.Spec, error) {
	in, err := io.ReadAll(io.LimitReader(r, MaxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	if len(in) > MaxSpecBytes {
		return nil, fmt.Errorf("wfxml: specification is over the %d-byte cap", MaxSpecBytes)
	}
	var x xmlSpec
	if err := (&scanner{in: in}).scan(&x); err != nil {
		return nil, err
	}
	return x.build()
}

// build validates the on-disk form and builds the specification.
func (x *xmlSpec) build() (*spec.Spec, error) {
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

// xmlDecl is the one processing instruction DecodeSpec reads: a leading
// XML declaration of version 1.0, in UTF-8 if it names an encoding.
var xmlDecl = regexp.MustCompile(`^<\?xml[ \t\r\n]+version=("1\.0"|'1\.0')([ \t\r\n]+encoding=("(?i:utf-8)"|'(?i:utf-8)'))?[ \t\r\n]*\?>`)

// fields names the attributes each element of xmlSpec keeps.
var fields = map[string][2]string{
	"module": {"name", "kind"}, "graph": {"label", "owner"}, "vertex": {"id", "name"}, "edge": {"from", "to"},
}

// entities are XML's predefined entities, the only ones it reads.
var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// scanner reads a specification document into xmlSpec as encoding/xml's
// decoder does: each construct it reads checked as that decoder checks
// it, the elements and attributes xmlSpec has no field for skipped, and
// what follows the root element ignored.
type scanner struct {
	in  []byte
	pos int
	err error // the first refusal; once it is set, pos is at the end of in
}

func (sc *scanner) scan(x *xmlSpec) error {
	sc.pos = len(xmlDecl.Find(sc.in))
	var (
		open   [][]byte    // names of the open elements, the root first
		vs     []xmlVertex // the vertices of every graph, in turn
		es     []xmlEdge   // and their edges
		v0, e0 int         // where the last graph's vertices and edges start in them
	)
	for sc.err == nil {
		sc.space()
		switch {
		case sc.pos == len(sc.in):
			sc.fail("unexpected EOF")
		case !sc.eat('<'):
			sc.fail("character data other than white space is not supported")
		case sc.eat('?'):
			sc.fail("processing instructions are not supported, bar a leading XML declaration of version 1.0 in UTF-8")
		case sc.eat('!'):
			if !sc.eat('-') || !sc.eat('-') {
				sc.fail("<!DOCTYPE and other directives, and CDATA sections, are not supported")
				continue
			}
			end := bytes.Index(sc.in[sc.pos:], []byte("--"))
			if sc.pos += end + 2; end < 0 || !sc.eat('>') {
				sc.fail(`comment not closed by the first "--"`)
			}
		case sc.eat('/'):
			name := sc.name()
			if sc.space(); !sc.eat('>') || len(open) == 0 || !bytes.Equal(open[len(open)-1], name) {
				sc.fail("unexpected end element </%s>", name)
			} else if open = open[:len(open)-1]; len(open) == 0 {
				return nil
			}
		default:
			name := sc.name()
			el := string(name)
			switch d := len(open); {
			case d == 0 && el != "specification":
				sc.fail("expected element type <specification> but have <%s>", name)
				continue
			case d == 1 && (el == "module" || el == "graph"), d == 2 && string(open[1]) == "graph" && (el == "vertex" || el == "edge"):
			default:
				el = ""
			}
			v, empty := sc.attrs(fields[el])
			switch el {
			case "module":
				x.Modules = append(x.Modules, xmlName{Name: string(v[0]), Kind: string(v[1])})
			case "graph":
				x.Graphs = append(x.Graphs, xmlGraph{Label: string(v[0]), Owner: string(v[1])})
				v0, e0 = len(vs), len(es)
			case "vertex":
				vs = append(vs, xmlVertex{ID: sc.atoi(v[0]), Name: string(v[1])})
				x.Graphs[len(x.Graphs)-1].Vertices = vs[v0:]
			case "edge":
				es = append(es, xmlEdge{From: sc.atoi(v[0]), To: sc.atoi(v[1])})
				x.Graphs[len(x.Graphs)-1].Edges = es[e0:]
			}
			if !empty {
				open = append(open, name)
			} else if len(open) == 0 {
				return sc.err
			}
		}
	}
	return sc.err
}

// attrs reads the attributes of a start tag up to its end, returning
// the values of the two it keeps (nil where absent), and reports
// whether the tag was empty (<e/>).
func (sc *scanner) attrs(keep [2]string) (v [2][]byte, empty bool) {
	for sc.space(); sc.err == nil && !sc.eat('>'); sc.space() {
		if sc.eat('/') {
			if !sc.eat('>') {
				sc.fail("expected /> in element")
			}
			return v, true
		}
		name := sc.name()
		if sc.space(); !sc.eat('=') {
			sc.fail("attribute name without = in element")
		}
		if sc.space(); !sc.eat('"') && !sc.eat('\'') {
			sc.fail("unquoted or missing attribute value in element")
			continue
		}
		val := sc.value(sc.in[sc.pos-1])
		for i, k := range keep {
			if string(name) == k {
				v[i] = val
			}
		}
	}
	return v, false
}

// value reads an attribute value and its closing quote as encoding/xml
// does: references replaced, line ends normalized, every rune checked.
// It aliases the input unless it held a reference or a CR.
func (sc *scanner) value(quote byte) []byte {
	n := bytes.IndexByte(sc.in[sc.pos:], quote)
	if n < 0 {
		sc.fail("unexpected EOF")
		return nil
	}
	raw := sc.in[sc.pos : sc.pos+n]
	if sc.pos += n + 1; bytes.IndexByte(raw, '<') >= 0 {
		sc.fail("unescaped < inside quoted string")
	}
	v := raw
	if bytes.ContainsAny(raw, "&\r") {
		v = make([]byte, 0, len(raw))
		for i := 0; i < len(raw); i++ {
			switch c := raw[i]; {
			case c == '&':
				n := bytes.IndexByte(raw[i:], ';')
				if n < 0 {
					sc.fail("invalid character entity")
					return nil
				}
				v, i = utf8.AppendRune(v, sc.reference(string(raw[i+1:i+n]))), i+n
			case c == '\r':
				v = append(v, '\n')
			case c == '\n' && i > 0 && raw[i-1] == '\r':
			default:
				v = append(v, c)
			}
		}
	}
	if !utf8.Valid(v) || bytes.ContainsFunc(v, func(r rune) bool {
		return r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF
	}) {
		sc.fail("illegal character or invalid UTF-8")
	}
	return v
}

// reference decodes what a reference holds between '&' and ';': a
// predefined entity's name, or #N or #xN naming a rune.
func (sc *scanner) reference(ref string) rune {
	if r, ok := entities[ref]; ok {
		return r
	}
	num, ok := strings.CutPrefix(ref, "#")
	base := 10
	if hex, isHex := strings.CutPrefix(num, "x"); isHex {
		num, base = hex, 16
	}
	r, err := strconv.ParseUint(num, base, 64)
	if !ok || err != nil || r > unicode.MaxRune {
		sc.fail("invalid character entity &%s;", ref)
	}
	return rune(r)
}

// name reads an element or attribute name: the run of bytes
// encoding/xml reads as one, which must be an ASCII XML name without a
// colon.
func (sc *scanner) name() []byte {
	start := sc.pos
	for sc.pos < len(sc.in) && (sc.in[sc.pos] >= utf8.RuneSelf || isNameByte(sc.in[sc.pos])) {
		sc.pos++
	}
	name := sc.in[start:sc.pos]
	if bytes.IndexByte(name, ':') >= 0 {
		sc.fail("namespace prefixes are not supported")
	}
	if bytes.ContainsFunc(name, func(r rune) bool { return r >= utf8.RuneSelf }) {
		sc.fail("non-ASCII names are not supported")
	}
	if len(name) == 0 || name[0] < 'A' { // of the name bytes, digits, '.' and '-' cannot start one
		sc.fail("invalid XML name %q", name)
	}
	return name
}

func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
}

// atoi reads an integer attribute as encoding/xml does: empty is 0,
// anything else a base-10 int once trimmed of white space.
func (sc *scanner) atoi(v []byte) int {
	if len(v) == 0 {
		return 0
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
	if err != nil {
		sc.fail("%v", err)
	}
	return int(n)
}

// space skips XML white space.
func (sc *scanner) space() {
	for sc.pos < len(sc.in) && strings.IndexByte(" \t\r\n", sc.in[sc.pos]) >= 0 {
		sc.pos++
	}
}

// eat advances past c if it is next.
func (sc *scanner) eat(c byte) bool {
	ok := sc.pos < len(sc.in) && sc.in[sc.pos] == c
	if ok {
		sc.pos++
	}
	return ok
}

// fail refuses the document, naming the line it stopped on, unless it
// is refused already, and moves to its end: what is read from there on
// is empty.
func (sc *scanner) fail(format string, args ...any) {
	if sc.err == nil {
		line := 1 + bytes.Count(sc.in[:min(sc.pos, len(sc.in))], []byte("\n"))
		sc.err = fmt.Errorf("wfxml: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	sc.pos = len(sc.in)
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
