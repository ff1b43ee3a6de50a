// Command benchmark is the repository's one benchmark: four long
// fixed-count workloads over the public functions of client, service,
// store, wal, integrity, arena, api, label and core, with a layer
// ledger. See README.md in this directory.
//
//	go run ./benchmark -workload ingest_http [-seed N] [-seconds S] [-trace 0|1|FILE]
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds everything the benchmark writes: scratch data and
// trace files (and, under benchmark/run.sh, the binary and Go's build
// cache). It is relative to the working directory, the checkout root.
const buildDir = ".bench_build"

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: ingest_http, reach_http, mixed_inproc or restart_restore")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 20, "length of the measured phase")
		trace     = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; any other value: traced run that writes its spans to that file")
		quick     = flag.Bool("quick", false, "test sizes (about 2k events, 3 rounds)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload for two interleaved sets and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(*quick, *seconds, os.Stdout))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		quick:    *quick,
		tmpRoot:  filepath.Join(buildDir, "tmp"),
	}
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace, cfg.traceOut = true, filepath.Join(buildDir, "trace", *workload+".json")
	default:
		cfg.trace, cfg.traceOut = true, *trace
	}
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode fails the run when any op failed: errored, was refused, or
// disagreed with the oracle.
func exitCode(res result) int {
	if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
		return 1
	}
	return 0
}
