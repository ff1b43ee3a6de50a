package store_test

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfreach/internal/skeleton"
	"wfreach/internal/store"
)

// TestRetireWaitsForTheLastReader walks the reader protocol on a store
// over an adopted arena: a retired store refuses every new request, the
// arena is given back exactly once — by Retire when nobody is inside,
// by the last Leave otherwise — and a refused Enter after that gives
// nothing back a second time.
func TestRetireWaitsForTheLastReader(t *testing.T) {
	g, entries := buildRun(t, 200)
	for _, inside := range []int{0, 1, 3} {
		a, _ := splitArena(t, entries)
		var released atomic.Int32
		s := store.New(g, skeleton.TCL)
		if err := s.AttachArena(a, func() { released.Add(1) }); err != nil {
			t.Fatal(err)
		}
		held := make([][]byte, inside)
		for i := range held {
			if !s.Enter() {
				t.Fatal("Enter refused on a live store")
			}
			held[i], _ = s.GetRaw(entries[i].V)
		}
		s.Retire()
		s.Retire() // harmless
		if s.Enter() {
			t.Fatal("Enter admitted a request to a retired store")
		}
		for i := range held {
			if got := released.Load(); got != 0 {
				t.Fatalf("%d readers inside, %d left: arena released %d times", inside, i, got)
			}
			// Still readable: this reader has not left.
			if !bytes.Equal(held[i], entries[i].Enc) {
				t.Fatalf("reader %d reads %x under a retired store, want %x", i, held[i], entries[i].Enc)
			}
			s.Leave()
		}
		if s.Enter() {
			t.Fatal("Enter admitted a request after the release")
		}
		if got := released.Load(); got != 1 {
			t.Fatalf("%d readers inside: arena released %d times, want once", inside, got)
		}
		if a.MappedBytes() != 0 {
			t.Fatalf("released arena still maps %d bytes", a.MappedBytes())
		}
		if s.ArenaCount() == 0 || s.Count() == 0 {
			t.Fatal("a retired store's counters stopped answering")
		}
		s.EvictArena() // on a closed arena: nothing to do, nothing to fault
	}
}

// TestRetireHeapStore: a store with no arena takes the same two atomics
// and the same refusal; there is just nothing to give back.
func TestRetireHeapStore(t *testing.T) {
	g, entries := buildRun(t, 50)
	s := store.New(g, skeleton.TCL)
	if err := s.AppendOwned(entries); err != nil {
		t.Fatal(err)
	}
	s.Publish()
	if !s.Enter() {
		t.Fatal("Enter refused on a live store")
	}
	s.Retire()
	if s.Enter() {
		t.Fatal("Enter admitted a request to a retired store")
	}
	if _, ok := s.GetRaw(entries[0].V); !ok {
		t.Fatal("the reader inside lost its labels")
	}
	s.Leave()
	if s.Enter() {
		t.Fatal("Enter admitted a request after the last reader left")
	}
}

// TestDroppedStoreGivesItsArenaBack: a store nobody retires releases
// its arena from the cleanup, once it is unreachable — and not while a
// reader between Enter and Leave still has it.
func TestDroppedStoreGivesItsArenaBack(t *testing.T) {
	g, entries := buildRun(t, 200)
	var released atomic.Int32
	inside := make(chan struct{})
	leave := make(chan struct{})
	var wg sync.WaitGroup
	func() {
		a, _ := splitArena(t, entries)
		s := store.New(g, skeleton.TCL)
		if err := s.AttachArena(a, func() { released.Add(1) }); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { // the only thing that still has the store
			defer wg.Done()
			if !s.Enter() {
				t.Error("Enter refused on a live store")
			}
			enc, _ := s.GetRaw(entries[0].V)
			close(inside)
			<-leave
			if !bytes.Equal(enc, entries[0].Enc) {
				t.Errorf("reader reads %x from a dropped store, want %x", enc, entries[0].Enc)
			}
			s.Leave()
		}()
	}()
	<-inside
	for range 3 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := released.Load(); got != 0 {
		t.Fatalf("arena released %d times with a reader inside", got)
	}
	close(leave)
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); released.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a dropped store never gave its arena back")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := released.Load(); got != 1 {
		t.Fatalf("arena released %d times, want once", got)
	}
}

// TestRetireRacesReaders is the protocol under -race: readers enter,
// read a mapped label and leave while Retire lands; every admitted
// reader reads intact bytes, and the arena goes back once.
func TestRetireRacesReaders(t *testing.T) {
	g, entries := buildRun(t, 200)
	a, _ := splitArena(t, entries)
	var released atomic.Int32
	s := store.New(g, skeleton.TCL)
	if err := s.AttachArena(a, func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	n := s.ArenaCount()
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				if !s.Enter() {
					return
				}
				if released.Load() != 0 {
					t.Error("admitted to a store whose arena is gone")
				}
				e := entries[i%n]
				if enc, ok := s.GetRaw(e.V); !ok || !bytes.Equal(enc, e.Enc) {
					t.Errorf("vertex %d reads %x, want %x", e.V, enc, e.Enc)
				}
				admitted.Add(1)
				s.Leave()
			}
		}()
	}
	for admitted.Load() < 1000 {
		runtime.Gosched()
	}
	s.Retire()
	wg.Wait()
	if got := released.Load(); got != 1 {
		t.Fatalf("arena released %d times, want once", got)
	}
}
