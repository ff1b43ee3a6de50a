package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach"
)

// dataDir ingests a run into a durable registry and shuts it down, so
// the directory holds what a stopped wfserve leaves: a log and a final
// snapshot covering all of it.
func dataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	reg, err := wfreach.NewDurableRegistry(wfreach.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g, err := wfreach.Compile(wfreach.BioAID())
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := wfreach.GenerateEvents(g, wfreach.GenOptions{TargetSize: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create("prod", g, wfreach.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(events); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// flip inverts one bit of the file, at from the end when negative.
func flip(t *testing.T, path string, at int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		at += len(raw)
	}
	raw[at] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExitCodes pins the auditor's API: 0 when nothing contradicts an
// anchor, 1 on a violation, 2 on usage and IO errors — what the
// operator's script branches on.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		args   func(dir string) []string
		want   int
		stdout string // substring
	}{
		{name: "clean directory", want: 0, stdout: "prod: verified",
			args: func(dir string) []string { return []string{"-data", dir} }},
		{name: "clean session", want: 0, stdout: "prod: verified",
			args: func(dir string) []string { return []string{"-data", dir, "-session", "prod"} }},
		{name: "empty directory", want: 0, stdout: "no sessions",
			args: func(dir string) []string { return []string{"-data", t.TempDir()} }},
		{name: "flipped WAL byte", want: 1, stdout: "prod: VIOLATION",
			damage: func(t *testing.T, dir string) { flip(t, filepath.Join(dir, "prod", "events.wal"), 9) },
			args:   func(dir string) []string { return []string{"-data", dir} }},
		{name: "flipped label extent byte", want: 1, stdout: "prod: VIOLATION",
			damage: func(t *testing.T, dir string) { flip(t, filepath.Join(dir, "prod", "labels.snap"), -2) },
			args:   func(dir string) []string { return []string{"-data", dir, "-session", "prod"} }},
		{name: "recorded head contradicts the log", want: 1, stdout: "prod: VIOLATION",
			args: func(dir string) []string {
				return []string{"-data", dir, "-session", "prod", "-head", strings.Repeat("ee", 32)}
			}},
		{name: "missing -data", want: 2,
			args: func(string) []string { return nil }},
		{name: "-head without -session", want: 2,
			args: func(dir string) []string { return []string{"-data", dir, "-head", strings.Repeat("ee", 32)} }},
		{name: "nonexistent session", want: 2,
			args: func(dir string) []string { return []string{"-data", dir, "-session", "ghost"} }},
		{name: "stray argument", want: 2,
			args: func(dir string) []string { return []string{"-data", dir, "prod"} }},
		{name: "unknown flag", want: 2,
			args: func(dir string) []string { return []string{"-data", dir, "-repair"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := dataDir(t)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			var stdout, stderr bytes.Buffer
			got := run(tc.args(dir), &stdout, &stderr)
			if got != tc.want || !strings.Contains(stdout.String(), tc.stdout) {
				t.Fatalf("exit %d, want %d with %q on stdout\nstdout: %sstderr: %s", got, tc.want, tc.stdout, &stdout, &stderr)
			}
			if tc.want == 2 && stderr.Len() == 0 {
				t.Fatal("a usage or IO error must say something on stderr")
			}
		})
	}
}
