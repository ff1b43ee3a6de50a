package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// TestEncodeSpecMatchesGoldenSpecXML: the spec.xml every data directory
// holds is still written byte for byte as the committed v1 fixture's,
// so neither a session's stored bytes nor its GET …/spec body moves
// with the decoder.
func TestEncodeSpecMatchesGoldenSpecXML(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-v1", "golden", specFile))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, wfspecs.BioAID()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("EncodeSpec(BioAID) is %d bytes and differs from the golden spec.xml's %d", buf.Len(), len(golden))
	}
}

// chainSpec is a specification whose start graph is a chain of n
// vertices, each name pad bytes long.
func chainSpec(t *testing.T, n, pad int) *spec.Spec {
	t.Helper()
	names := make([]string, n)
	edges := make([][2]string, n-1)
	for i := range names {
		names[i] = fmt.Sprintf("v%05d%s", i, strings.Repeat("x", pad-6))
		if i > 0 {
			edges[i-1] = [2]string{names[i-1], names[i]}
		}
	}
	s, err := spec.NewBuilder().Start("g0", spec.G(names, edges...)).Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func encodedLen(t *testing.T, s *spec.Spec) int {
	t.Helper()
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestDurableSpecXMLHeldToCap: every spec.xml a durable registry writes
// decodes again. A specification whose spec.xml is just under
// wfxml.MaxSpecBytes creates, and restores after a restart. One vertex
// more puts spec.xml over the cap, and its create is a bad_spec that
// names the cap and leaves nothing on disk, though the compact XML it
// was uploaded as is under the cap.
func TestDurableSpecXMLHeldToCap(t *testing.T) {
	const pad = 1000
	// Vertices 1,000 to 9,999 have four-digit ids: each encodes, with
	// the edge into it, to the same length.
	base := encodedLen(t, chainSpec(t, 1001, pad))
	per := encodedLen(t, chainSpec(t, 1002, pad)) - base
	n := 1001 + (wfxml.MaxSpecBytes-base)/per
	near, over := chainSpec(t, n, pad), chainSpec(t, n+1, pad)
	if l := encodedLen(t, near); l > wfxml.MaxSpecBytes || l+per <= wfxml.MaxSpecBytes {
		t.Fatalf("the near-cap spec encodes to %d bytes, want within %d under %d", l, per, wfxml.MaxSpecBytes)
	}

	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{})
	g, err := spec.Compile(near)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("near", g, Config{}); err != nil {
		t.Fatalf("create under the cap: %v", err)
	}
	var compact strings.Builder
	compact.WriteString(`<specification><graph label="g0">`)
	for v := range n + 1 {
		fmt.Fprintf(&compact, `<vertex id="%d" name="%s"/>`, v, over.Graphs()[0].G.Name(graph.VertexID(v)))
		if v > 0 {
			fmt.Fprintf(&compact, `<edge from="%d" to="%d"/>`, v-1, v)
		}
	}
	compact.WriteString(`</graph></specification>`)
	if compact.Len() > wfxml.MaxSpecBytes {
		t.Fatalf("the compact upload is %d bytes, over the cap", compact.Len())
	}
	srv := httptest.NewServer(NewHandler(reg))
	resp, err := http.Post(srv.URL+"/v1/sessions?name=over", "application/xml", strings.NewReader(compact.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	srv.Close()
	if err != nil || out.Err == nil || out.Err.Code != api.CodeBadSpec || !strings.Contains(out.Err.Message, fmt.Sprint(wfxml.MaxSpecBytes)) {
		t.Fatalf("create over the cap: %d %+v (%v), want a bad_spec naming the %d-byte cap", resp.StatusCode, out.Err, err, wfxml.MaxSpecBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "over")); !os.IsNotExist(err) {
		t.Fatalf("a refused create left %s/over behind: %v", dir, err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableReg(t, dir, DurableOptions{})
	t.Cleanup(func() { reg2.Close() })
	if names, err := reg2.Restore(dir); err != nil || len(names) != 1 {
		t.Fatalf("restore: %v, %v", names, err)
	}
	s, _ := reg2.Get("near")
	if got := s.Grammar().Spec().Graphs()[0].G; got.NumVertices() != n || got.Name(graph.VertexID(n-1)) != near.Graphs()[0].G.Name(graph.VertexID(n-1)) {
		t.Fatalf("restored a start graph of %d vertices, want the %d created", got.NumVertices(), n)
	}
}

// TestHTTPCreateBodyCap: a specification over wfxml.MaxSpecBytes in a
// create body, raw XML or JSON, is a typed bad_request that names the
// cap, though it is a good one once trimmed of its padding.
func TestHTTPCreateBodyCap(t *testing.T) {
	srv := newTestServer(t)
	var spec bytes.Buffer
	if err := wfxml.EncodeSpec(&spec, wfspecs.RunningExample()); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", wfxml.MaxSpecBytes)
	jsonBody, err := json.Marshal(api.CreateSessionRequest{Name: "big", SpecXML: spec.String() + pad})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		contentType string
		body        []byte
	}{
		{"application/xml", []byte(spec.String() + pad)},
		{api.ContentTypeJSON, jsonBody},
	} {
		resp, err := http.Post(srv.URL+"/v1/sessions?name=big", c.contentType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var out api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || out.Err == nil {
			t.Fatalf("%s: status %d, undecodable error body: %v", c.contentType, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusBadRequest || out.Err.Code != api.CodeBadRequest ||
			!strings.Contains(out.Err.Message, fmt.Sprint(wfxml.MaxSpecBytes)) {
			t.Errorf("%s: %d %s %q, want a bad_request naming the %d-byte cap", c.contentType, resp.StatusCode, out.Err.Code, out.Err.Message, wfxml.MaxSpecBytes)
		}
	}
	// Under the cap the same specification creates a session, and so
	// does one whose JSON escaping, six bytes for each '<' of a long
	// comment, takes the body past MaxSpecBytes.
	resp, err := http.Post(srv.URL+"/v1/sessions?name=small", "application/xml", bytes.NewReader(spec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create under the cap: %d", resp.StatusCode)
	}
	commented := strings.Replace(spec.String(), "<specification>", "<specification><!--"+strings.Repeat("<", 1<<20)+"-->", 1)
	jsonBody, err = json.Marshal(api.CreateSessionRequest{Name: "escaped", SpecXML: commented})
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonBody) <= wfxml.MaxSpecBytes {
		t.Fatalf("the escaped body is %d bytes, want over %d", len(jsonBody), wfxml.MaxSpecBytes)
	}
	resp, err = http.Post(srv.URL+"/v1/sessions", api.ContentTypeJSON, bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create of a %d-byte spec_xml in a %d-byte JSON body: %d", len(commented), len(jsonBody), resp.StatusCode)
	}
}
