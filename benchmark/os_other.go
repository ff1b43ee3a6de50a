//go:build !linux

package main

// The reference platform is linux: CPU and RSS accounting read
// getrusage(2) and /proc there. Elsewhere the benchmark still runs and
// verifies, and reports these as zero.

func procCPUNS() int64      { return 0 }
func threadCPUNS() int64    { return 0 }
func peakRSSBytes() int64   { return 0 }
func kernelRelease() string { return "unknown" }
