// Command wfload drives load at wfserve through the Go client SDK
// (wfreach/client) and checks every answer against breadth-first
// search on the generated runs.
//
// Usage:
//
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 10000 -sessions 4 -batch 128 -readers 4
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 2000 -verify -reach-batch 16
//	wfload -addr http://127.0.0.1:8080 -spec BioAID -size 2000 -resume
//	wfload -addr http://127.0.0.1:8080 -replica http://127.0.0.1:8081 -verify
//	wfload -cluster cluster.json -sessions 12 -verify -move load-3=b
//
// Each of -sessions sessions gets its own generated run (seed+i) and
// one writer streaming it as binary frames in -batch event calls,
// while -readers goroutines per session issue batch reach queries of
// -reach-batch pairs over the acknowledged prefix; with -lineage-every
// N every Nth query call is a full lineage scan instead. -verify checks
// every answer, reach and lineage alike, against ground truth, and
// -cleanup deletes the sessions at the end.
//
// -replica sends every read to the follower at that URL while writes
// go to -addr, samples replica lag (the primary's committed WAL
// sequence minus the follower's applied sequence, worst session)
// throughout, and waits for the follower to catch up after ingest.
// Reads that trail the follower's applied prefix count as query
// errors, not failures.
//
// -cluster drives a session-partitioned cluster through the same map
// file the wfserve nodes load: sessions spread across the nodes by
// consistent hashing, and the result counts ingest per node. -move
// "session=node" moves that session live once a quarter of the stream
// is acknowledged, while its writer keeps ingesting.
//
// -resume is the crash/restart check for a durable server (wfserve
// -data): run wfload, kill the server mid-ingest, restart it on the
// same data directory, then run wfload again with the same flags plus
// -resume. It creates nothing and ingests nothing: it regenerates the
// identical runs, reads each recovered session's vertex count, and
// verifies -queries pairs per session below it. A failed pair or a
// wrong answer means recovery diverged from the uninterrupted run.
//
// Every run prints its measurements; -report writes them as one JSON
// result (docs/BENCHMARKS.md, "Report format"). wfload exits non-zero
// when any answer contradicted ground truth or when the run itself
// failed. -cpuprofile and -memprofile capture pprof profiles of the
// load generator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

type config struct {
	addr         string
	replica      string
	clusterFile  string
	move         string
	spec         string
	size         int
	seed         int64
	sessions     int
	batch        int
	readers      int
	verify       bool
	prefix       string
	resume       bool
	queries      int
	lineageEvery int
	reachBatch   int
	cleanup      bool
	cpuProfile   string
	memProfile   string
	reportPath   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "wfserve base URL (the primary: writes go here)")
	flag.StringVar(&cfg.replica, "replica", "", "follower base URL: send reads there, sample replica lag, wait for catch-up")
	flag.StringVar(&cfg.clusterFile, "cluster", "", "drive the session-partitioned cluster defined by this map file instead of -addr")
	flag.StringVar(&cfg.move, "move", "", "with -cluster: live-move \"session=node\" once a quarter of the stream is acknowledged")
	flag.StringVar(&cfg.spec, "spec", "BioAID", "built-in specification to load")
	flag.IntVar(&cfg.size, "size", 10000, "target vertices per generated run")
	flag.Int64Var(&cfg.seed, "seed", 1, "base generation seed (session i uses seed+i)")
	flag.IntVar(&cfg.sessions, "sessions", 2, "concurrent sessions (one writer each)")
	flag.IntVar(&cfg.batch, "batch", 128, "events per ingest batch")
	flag.IntVar(&cfg.readers, "readers", 2, "query goroutines per session")
	flag.BoolVar(&cfg.verify, "verify", false, "check query answers against BFS ground truth")
	flag.StringVar(&cfg.prefix, "prefix", "load", "session name prefix")
	flag.BoolVar(&cfg.resume, "resume", false, "verify sessions recovered by a restarted durable server instead of ingesting")
	flag.IntVar(&cfg.queries, "queries", 2000, "reach pairs verified per session in -resume mode")
	flag.IntVar(&cfg.lineageEvery, "lineage-every", 0, "issue a lineage query every N reader query calls (0 disables)")
	flag.IntVar(&cfg.reachBatch, "reach-batch", 1, "reachability pairs per batch-reach call")
	flag.BoolVar(&cfg.cleanup, "cleanup", false, "delete the created sessions when the run finishes")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the load generator to this path")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile of the load generator to this path")
	flag.StringVar(&cfg.reportPath, "report", "", "write the machine-readable result to this path")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
		os.Exit(1)
	}
}

// run connects to the servers cfg names and drives the load there.
func run(cfg config, out io.Writer) error {
	t, err := connect(cfg)
	if err != nil {
		return err
	}
	return runOn(cfg, t, out)
}

// runOn drives the load against t, writes the result and the profiles
// asked for, and fails unless every answer checked out.
func runOn(cfg config, t *topo, out io.Writer) error {
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Fprintf(out, "%s ...\n", t.name)
	res, err := drive(context.Background(), cfg, t)
	if err != nil {
		return err
	}
	printResult(out, res)

	if cfg.memProfile != "" {
		if err := writeHeapProfile(cfg.memProfile); err != nil {
			return err
		}
	}
	if cfg.reportPath != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.reportPath, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write -report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", cfg.reportPath)
	}
	if !res.Pass {
		return fmt.Errorf("%d query answers contradicted BFS ground truth", res.Metrics.VerifyMismatches)
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
