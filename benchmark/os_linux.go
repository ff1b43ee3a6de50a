//go:build linux

package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// procCPUNS returns the CPU time (user+system) consumed so far by the
// whole process: generator, HTTP server goroutines, GC workers.
func procCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadCPUNS returns the CPU time (user+system) consumed so far by the
// calling OS thread. The generator goroutine is locked to its thread,
// so deltas are the generator's own busy time.
func threadCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSBytes returns the process's peak resident set size (VmHWM).
func peakRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// kernelRelease returns the running kernel's release string.
func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(raw))
}
