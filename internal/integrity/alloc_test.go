//go:build !race

package integrity

import "testing"

// TestHashingAllocatesNothing gates the two hashers that sit on hot
// paths — the chain on every ingested frame, the Merkle accumulator on
// every label of a snapshot verified at restore: once their buffers
// have seen the largest input, neither touches the heap.
func TestHashingAllocatesNothing(t *testing.T) {
	frame := make([]byte, 200)
	c := NewChainer()
	head := c.Extend(Head{}, frame) // the buffer has now held the largest frame
	if n := testing.AllocsPerRun(1000, func() { head = c.Extend(head, frame[:40+int(head[0])%160]) }); n != 0 {
		t.Errorf("Chainer.Extend: %v allocations per frame, want 0", n)
	}
	m := NewMerkle()
	v := uint32(0)
	leaf := func() {
		m.Add(m.LabelLeaf(v, frame[:6+v%32]))
		v++
	}
	for v < 1<<12 { // grow the pending-subtree stack past what the measured leaves need
		leaf()
	}
	if n := testing.AllocsPerRun(1000, leaf); n != 0 {
		t.Errorf("Merkle.LabelLeaf+Add: %v allocations per leaf, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { head = m.Root() }); n != 0 {
		t.Errorf("Merkle.Root: %v allocations, want 0", n)
	}
}
