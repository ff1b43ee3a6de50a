package store_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
)

// benchLabels generates a run and its encoded labels once per size.
func benchLabels(b *testing.B, size int) (*spec.Grammar, []store.Entry) {
	b.Helper()
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: 1})
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		b.Fatal(err)
	}
	s := store.New(g, skeleton.TCL)
	live := r.Graph.LiveVertices()
	entries := make([]store.Entry, 0, len(live))
	for _, v := range live {
		entries = append(entries, store.Entry{V: v, Enc: s.Encode(d.MustLabel(v))})
	}
	return g, entries
}

// BenchmarkStoreBatchPublish measures the write path the service
// ingest pipeline uses: stage a batch, publish once.
func BenchmarkStoreBatchPublish(b *testing.B) {
	const batch = 256
	g, entries := benchLabels(b, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.New(g, skeleton.TCL)
		for lo := 0; lo < len(entries); lo += batch {
			hi := min(lo+batch, len(entries))
			if err := s.AppendOwned(entries[lo:hi]); err != nil {
				b.Fatal(err)
			}
			s.Publish()
		}
	}
	b.ReportMetric(float64(len(entries)*b.N)/b.Elapsed().Seconds(), "labels/sec")
}

// BenchmarkStoreGetRaw measures the lock-free point lookup across
// parallel readers on a fully published store.
func BenchmarkStoreGetRaw(b *testing.B) {
	g, entries := benchLabels(b, 8192)
	s := store.New(g, skeleton.TCL)
	if err := s.AppendOwned(entries); err != nil {
		b.Fatal(err)
	}
	s.Publish()
	vs := make([]graph.VertexID, len(entries))
	for i, e := range entries {
		vs[i] = e.V
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(3))
		for pb.Next() {
			if _, ok := s.GetRaw(vs[rng.Intn(len(vs))]); !ok {
				b.Fail()
			}
		}
	})
}

// arenaStore writes all entries into an arena file and returns a store
// that serves them zero-copy from the mapping.
func arenaStore(b *testing.B, g *spec.Grammar, entries []store.Entry) *store.Store {
	b.Helper()
	aes := make([]arena.Entry, len(entries))
	for i, e := range entries {
		aes[i] = arena.Entry{V: e.V, Enc: e.Enc}
	}
	path := filepath.Join(b.TempDir(), "labels.snap")
	if _, err := arena.Write(path, arena.Meta{Events: int64(len(entries)), HasChain: true}, aes); err != nil {
		b.Fatal(err)
	}
	a, err := arena.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.NewFromArena(g, skeleton.TCL, a)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreGetRawArena is the arena-backed counterpart of
// BenchmarkStoreGetRaw: the same index lookup, landing in the mapped
// label region instead of a heap segment. One read path serves both
// backings, so the pair should print the same number.
func BenchmarkStoreGetRawArena(b *testing.B) {
	g, entries := benchLabels(b, 8192)
	s := arenaStore(b, g, entries)
	vs := make([]graph.VertexID, len(entries))
	for i, e := range entries {
		vs[i] = e.V
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(3))
		for pb.Next() {
			if _, ok := s.GetRaw(vs[rng.Intn(len(vs))]); !ok {
				b.Fail()
			}
		}
	})
}

// heapAndArena returns the same labels served from heap segments and
// from a mapped arena.
func heapAndArena(b *testing.B, size int) (entries []store.Entry, stores map[string]*store.Store) {
	b.Helper()
	g, entries := benchLabels(b, size)
	heap := store.New(g, skeleton.TCL)
	if err := heap.AppendOwned(entries); err != nil {
		b.Fatal(err)
	}
	heap.Publish()
	return entries, map[string]*store.Store{"heap": heap, "arena": arenaStore(b, g, entries)}
}

// BenchmarkStoreReachBytes measures the two-lookup reachability check
// — GetRaw twice, then π on the encoded bytes — on heap-backed and
// arena-backed stores. The allocation column must print zero.
func BenchmarkStoreReachBytes(b *testing.B) {
	entries, stores := heapAndArena(b, 8192)
	for name, s := range stores {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := entries[i%len(entries)].V
				w := entries[(i*7+3)%len(entries)].V
				if _, err := s.Reach(v, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreLineage measures the full provenance-closure scan (one
// early-exit byte walk per stored label against the target) over heap
// segments and over an arena. Allocations are the result slice's alone.
func BenchmarkStoreLineage(b *testing.B) {
	entries, stores := heapAndArena(b, 4096)
	for name, s := range stores {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Lineage(entries[i%len(entries)].V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
