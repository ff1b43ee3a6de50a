package service_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

// ExampleRegistry_Create shows durable session creation: on a registry
// opened with NewDurableRegistry, Create lays down the session's
// specification, metadata and an empty write-ahead log before
// returning, so the session is recoverable from its first event on.
func ExampleRegistry_Create() {
	dir, err := os.MkdirTemp("", "wfserve-data")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		panic(err)
	}
	defer reg.Close()

	sp, _ := service.Builtin("RunningExample")
	g := spec.MustCompile(sp)
	s, err := reg.Create("run1", g, service.Config{})
	if err != nil {
		panic(err)
	}
	_, err = s.Integrity()
	fmt.Println("log open:", err == nil)

	entries, _ := os.ReadDir(filepath.Join(dir, "run1"))
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	fmt.Println("on disk:", names)
	// Output:
	// log open: true
	// on disk: [events.wal session.json spec.xml]
}

// ExampleRegistry_Restore runs the crash drill end to end: ingest half
// an execution into a durable session, abandon the registry without
// shutdown (the WAL is flushed at every acknowledged batch), restore
// the data directory into a fresh registry, and keep using the session
// — the recovered labels answer exactly as before.
func ExampleRegistry_Restore() {
	dir, err := os.MkdirTemp("", "wfserve-data")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	sp, _ := service.Builtin("RunningExample")
	g := spec.MustCompile(sp)
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 200, Seed: 1})
	if err != nil {
		panic(err)
	}

	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		panic(err)
	}
	s, err := reg.Create("run1", g, service.Config{})
	if err != nil {
		panic(err)
	}
	if _, err := s.Append(events[:len(events)/2]); err != nil {
		panic(err)
	}
	// The process "crashes" here: no Close, no snapshot — just the log.

	reg2, err := service.NewDurableRegistry(service.DurableOptions{Dir: dir, Fsync: false})
	if err != nil {
		panic(err)
	}
	defer reg2.Close()
	restored, err := reg2.Restore(dir)
	if err != nil {
		panic(err)
	}
	fmt.Println("restored:", restored)

	s2, _ := reg2.Get("run1")
	fmt.Println("vertices recovered:", s2.Vertices())
	ans := s2.ReachBatch([]api.ReachPair{{From: int32(events[0].V), To: int32(events[len(events)/2-1].V)}})
	if ans[0].Code != "" {
		panic(ans[0].Error)
	}
	fmt.Println("source reaches last recovered vertex:", ans[0].Reachable)
	// Output:
	// restored: [run1]
	// vertices recovered: 100
	// source reaches last recovered vertex: true
}
