package main

import (
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wfreach"
	"wfreach/internal/service"
)

// buildOnce compiles the binary under test.
func buildOnce(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives the wflabel binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "wflabel")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestWflabelGeneratedRunStats(t *testing.T) {
	bin := buildOnce(t)
	out, err := exec.Command(bin, "-size", "300", "-seed", "3", "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"class=linear-recursive", "labels: max", "avg"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestWflabelVerifyAndQueries(t *testing.T) {
	bin := buildOnce(t)
	out, err := exec.Command(bin, "-size", "120", "-seed", "1", "-verify", "-query", "0,2", "-query", "2,0").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "verified") {
		t.Fatalf("verification missing:\n%s", s)
	}
	if !strings.Contains(s, "reach(0→2) = true") || !strings.Contains(s, "reach(2→0) = false") {
		t.Fatalf("query answers wrong:\n%s", s)
	}
}

func TestWflabelExecutionMode(t *testing.T) {
	bin := buildOnce(t)
	out, err := exec.Command(bin, "-size", "150", "-seed", "2", "-exec", "-bfs", "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "labels: max") {
		t.Fatalf("stats missing:\n%s", out)
	}
}

func TestWflabelLoadsXML(t *testing.T) {
	bin := buildOnce(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")
	s := wfreach.BioAID()
	if err := wfreach.SaveSpec(specPath, s); err != nil {
		t.Fatal(err)
	}
	g := wfreach.MustCompile(s)
	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 200, Seed: 4})
	if err := wfreach.SaveRun(runPath, r); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-spec", specPath, "-run", runPath, "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "labels: max") {
		t.Fatalf("stats missing:\n%s", out)
	}
}

func TestWflabelErrors(t *testing.T) {
	bin := buildOnce(t)
	cases := [][]string{
		{"-spec", "/nonexistent/spec.xml"},
		{"-size", "50", "-query", "garbage"},
		{"-size", "50", "-query", "1"},
		{"-size", "50", "-query", "999999,0"},
	}
	for _, args := range cases {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Fatalf("args %v should fail:\n%s", args, out)
		}
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in      string
		v, w    wfreach.VertexID
		wantErr string
	}{
		{in: "3,141", v: 3, w: 141},
		{in: "0,0", v: 0, w: 0},
		{in: " 7 , 9 ", v: 7, w: 9}, // whitespace tolerated
		{in: "3", wantErr: `not "v,w"`},
		{in: "", wantErr: `not "v,w"`},
		{in: "1,2,3", wantErr: `not "v,w"`},
		{in: "a,b", wantErr: "not a vertex id"},
		{in: "1,", wantErr: "not a vertex id"},
		{in: ",1", wantErr: "not a vertex id"},
		{in: "1.5,2", wantErr: "not a vertex id"},
		{in: "-1,2", wantErr: "is negative"},
		{in: "2,-4", wantErr: "is negative"},
		{in: "99999999999999,1", wantErr: "not a vertex id"}, // int32 overflow
		{in: "0x10,1", wantErr: "not a vertex id"},
	}
	for _, tc := range cases {
		v, w, err := parseQuery(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("parseQuery(%q) = (%d,%d), want error containing %q", tc.in, v, w, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseQuery(%q) error %q, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseQuery(%q): %v", tc.in, err)
			continue
		}
		if v != tc.v || w != tc.w {
			t.Errorf("parseQuery(%q) = (%d,%d), want (%d,%d)", tc.in, v, w, tc.v, tc.w)
		}
	}
}

// Out-of-range but well-formed ids must produce a clear error naming
// the query, not a panic or a silent misparse.
func TestWflabelOutOfRangeQueryMessage(t *testing.T) {
	bin := buildOnce(t)
	out, err := exec.Command(bin, "-size", "50", "-query", "999999,0").CombinedOutput()
	if err == nil {
		t.Fatalf("out-of-range query should fail:\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "999999,0") || !strings.Contains(s, "not a labeled run vertex") {
		t.Fatalf("unclear error message:\n%s", s)
	}
}

// TestWflabelRemoteMode labels a generated run on an in-process
// wfserve through the client SDK: create + binary stream + one
// batch-reach roundtrip for all queries, sampled verification, and
// session cleanup.
func TestWflabelRemoteMode(t *testing.T) {
	reg := service.NewRegistry()
	srv := httptest.NewServer(service.NewHandler(reg))
	defer srv.Close()
	bin := buildOnce(t)

	out, err := exec.Command(bin, "-size", "200", "-seed", "1",
		"-addr", srv.URL, "-session", "remote", "-stats", "-verify",
		"-query", "0,2", "-query", "2,0").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"streamed", "server session:", "verified 2000 sampled pairs",
		"reach(0→2) = true", "reach(2→0) = false",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// Without -keep the session is deleted afterwards.
	if _, ok := reg.Get("remote"); ok {
		t.Fatal("session not cleaned up")
	}

	// -keep leaves it on the server.
	out, err = exec.Command(bin, "-size", "100", "-seed", "2",
		"-addr", srv.URL, "-session", "kept", "-keep").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	kept, ok := reg.Get("kept")
	if !ok || kept.Vertices() == 0 {
		t.Fatal("kept session missing or empty")
	}

	// -bfs picks the library's skeleton; a server has only TCL, so
	// asking for both is a usage error that creates nothing.
	out, err = exec.Command(bin, "-size", "100", "-addr", srv.URL, "-session", "bfs", "-bfs").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-bfs with -addr: %v, want exit status 2\n%s", err, out)
	}
	if _, ok := reg.Get("bfs"); ok {
		t.Fatal("-bfs with -addr created a session")
	}

	// -integrity is an audit of an existing session: a memory-only
	// server has no chain, which is reported as unavailability (exit
	// 0), not an error.
	out, err = exec.Command(bin, "-addr", srv.URL, "-session", "kept", "-integrity").CombinedOutput()
	if err != nil {
		t.Fatalf("integrity mode on a memory server: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "integrity: unavailable") {
		t.Fatalf("output missing unavailability notice:\n%s", out)
	}
}

// TestWflabelIntegrityMode audits a durable session: the printed
// anchor line must carry the chain head in wfverify -head form, and
// the audited session must be left exactly as it was.
func TestWflabelIntegrityMode(t *testing.T) {
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(service.NewHandler(reg))
	defer srv.Close()
	bin := buildOnce(t)

	// Seed a session through the normal remote workflow.
	if out, err := exec.Command(bin, "-size", "150", "-seed", "4",
		"-addr", srv.URL, "-session", "audited", "-keep").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s, ok := reg.Get("audited")
	if !ok {
		t.Fatal("audited session missing")
	}
	before := s.Vertices()

	out, err := exec.Command(bin, "-addr", srv.URL, "-session", "audited", "-integrity").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	got := string(out)
	_, head, okc := s.ChainState()
	if !okc {
		t.Fatal("durable session has no chain")
	}
	for _, want := range []string{
		"integrity: chain " + head.String(),
		"wfverify -data <dir> -session audited -head " + head.String(),
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "streamed") || s.Vertices() != before {
		t.Fatalf("audit mode touched the session:\n%s", got)
	}
	// Auditing a session that does not exist is an error.
	if out, err := exec.Command(bin, "-addr", srv.URL, "-session", "nope", "-integrity").CombinedOutput(); err == nil {
		t.Fatalf("integrity mode invented a session:\n%s", out)
	}
}
