package parsetree_test

import (
	"testing"

	"wfreach/internal/label"
	"wfreach/internal/parsetree"
)

func TestTreeConstruction(t *testing.T) {
	root := parsetree.NewRoot(0, 3)
	if root.Index != 0 || root.IsSpecial() || root.Parent != nil {
		t.Fatal("root malformed")
	}
	if len(root.RunOf) != 3 {
		t.Fatal("RunOf not sized")
	}
	for _, r := range root.RunOf {
		if r != -1 {
			t.Fatal("RunOf must start unmaterialized")
		}
	}
	l := root.AddSpecial(label.L, 1)
	if l.Index != 1 || !l.IsSpecial() || l.Parent != root {
		t.Fatalf("special child malformed: index %d", l.Index)
	}
	c1 := l.AddInstance(1, 4, l.NextIndex())
	c2 := l.AddInstance(1, 4, l.NextIndex())
	if c1.Index != 1 || c2.Index != 2 {
		t.Fatal("copy indexes must be 1-based positions")
	}
	if c1.Root() != root || c2.Root() != root {
		t.Fatal("Root() broken")
	}
}

func TestAddSpecialRejectsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddSpecial(N) must panic")
		}
	}()
	parsetree.NewRoot(0, 1).AddSpecial(label.N, 1)
}

func TestShapeStatistics(t *testing.T) {
	root := parsetree.NewRoot(0, 2)
	l := root.AddSpecial(label.L, 1)
	for i := 0; i < 5; i++ {
		l.AddInstance(1, 2, l.NextIndex())
	}
	r := root.AddSpecial(label.R, 2)
	m := r.AddInstance(2, 2, r.NextIndex())
	m2 := r.AddInstance(3, 2, r.NextIndex())
	_ = m2
	m.AddInstance(4, 2, 1) // nested plain child under the chain member
	if got := root.Size(); got != 11 {
		t.Fatalf("Size = %d, want 11", got)
	}
	if got := root.Depth(); got != 4 {
		t.Fatalf("Depth = %d, want 4 (root, R, member, nested)", got)
	}
	if got := root.MaxFanout(); got != 5 {
		t.Fatalf("MaxFanout = %d, want 5", got)
	}
	count := 0
	root.Walk(func(*parsetree.Node) { count++ })
	if count != 11 {
		t.Fatalf("Walk visited %d", count)
	}
}
