package service

import (
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// buildRestoreFixture ingests size events into a durable session and
// shuts down cleanly. Without replay the shutdown checkpoint leaves an
// arena snapshot covering the whole log; with replay no snapshot is
// ever taken, so Restore re-issues every label from the log.
func buildRestoreFixture(b *testing.B, dir string, size int, replay bool) int {
	b.Helper()
	sp, ok := Builtin("BioAID")
	if !ok {
		b.Fatal("no BioAID builtin")
	}
	g, err := spec.Compile(sp)
	if err != nil {
		b.Fatal(err)
	}
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: size, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	snapshotEvery := 1 << 30 // only the checkpoint Close writes
	if replay {
		snapshotEvery = -1
	}
	reg, err := NewDurableRegistry(DurableOptions{Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		b.Fatal(err)
	}
	s, err := reg.Create("r", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += 512 {
		hi := min(lo+512, len(events))
		if _, err := s.Append(events[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		b.Fatal(err)
	}
	return len(events)
}

// benchmarkRestore measures a full Registry.Restore of the fixture —
// the cold-start path a daemon pays before it can serve its first
// query — reporting labels/sec of recovered state.
func benchmarkRestore(b *testing.B, size int, replay bool) {
	dir := b.TempDir()
	n := buildRestoreFixture(b, dir, size, replay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := NewDurableRegistry(DurableOptions{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Restore(dir); err != nil {
			b.Fatal(err)
		}
		s, ok := reg.Get("r")
		if !ok || int(s.Vertices()) != n {
			b.Fatalf("restored %d vertices, want %d", s.Vertices(), n)
		}
		b.StopTimer()
		reg.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "labels/sec")
}

func BenchmarkRestoreReplay_100k(b *testing.B) { benchmarkRestore(b, 100_000, true) }
func BenchmarkRestoreArena_100k(b *testing.B)  { benchmarkRestore(b, 100_000, false) }

func BenchmarkRestoreReplay_1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-label fixture; skipped in -short")
	}
	benchmarkRestore(b, 1_000_000, true)
}

func BenchmarkRestoreArena_1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-label fixture; skipped in -short")
	}
	benchmarkRestore(b, 1_000_000, false)
}
