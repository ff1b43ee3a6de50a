package api

import (
	"fmt"
	"testing"
)

func threeNodes() []ClusterNode {
	return []ClusterNode{
		{Name: "a", URL: "http://127.0.0.1:8081"},
		{Name: "b", URL: "http://127.0.0.1:8082"},
		{Name: "c", URL: "http://127.0.0.1:8083"},
	}
}

// Placement must be a pure function of the node set: two rings built
// from the same nodes (in any order) agree on every session, because
// servers and clients compute placement independently.
func TestRingDeterministic(t *testing.T) {
	r1 := newRing(threeNodes())
	reversed := threeNodes()
	reversed[0], reversed[2] = reversed[2], reversed[0]
	r2 := newRing(reversed)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("session-%d", i)
		if a, b := r1.Place(s).Name, r2.Place(s).Name; a != b {
			t.Fatalf("placement of %q differs across build orders: %s vs %s", s, a, b)
		}
	}
}

// Every node must receive a meaningful share of the sessions, and a
// double-weight node about double the share.
func TestRingSpreadAndWeight(t *testing.T) {
	nodes := threeNodes()
	nodes[1].Weight = 2
	r := newRing(nodes)
	counts := map[string]int{}
	const n = 8000
	for i := 0; i < n; i++ {
		counts[r.Place(fmt.Sprintf("session-%d", i)).Name]++
	}
	// Expected shares: a=1/4, b=2/4, c=1/4. Allow generous slack —
	// 64 points per weight unit spreads within a few percent, the
	// test just guards against gross skew.
	for name, share := range map[string]float64{"a": 0.25, "b": 0.5, "c": 0.25} {
		got := float64(counts[name]) / n
		if got < share/2 || got > share*1.6 {
			t.Errorf("node %s got share %.3f, want about %.2f (counts %v)", name, got, share, counts)
		}
	}
}

func TestRingRejectsBadNodeSets(t *testing.T) {
	for name, nodes := range map[string][]ClusterNode{
		"empty node set":      nil,
		"unnamed node":        {{Name: "", URL: "http://x"}},
		"duplicate node name": {{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}},
		"relative url":        {{Name: "a", URL: "127.0.0.1:8081"}},
		"negative weight":     {{Name: "a", URL: "http://x", Weight: -1}},
	} {
		if _, err := NewPlacement(ClusterMap{Nodes: nodes}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Overrides beat hash placement, versions ratchet, and DropOverride
// reverts to the ring.
func TestPlacementOverridePrecedence(t *testing.T) {
	st, err := NewPlacement(ClusterMap{Version: 3, Nodes: threeNodes()})
	if err != nil {
		t.Fatal(err)
	}
	home := st.Place("s1").Name
	away := "a"
	if home == "a" {
		away = "b"
	}
	ov, err := st.Override("s1", away, home, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	if ov.Version <= 3 {
		t.Fatalf("override version %d did not rise past the map's", ov.Version)
	}
	if ov.From != home || ov.FinalSeq != 42 {
		t.Fatalf("override lost its drain record: %+v", ov)
	}
	if got := st.Place("s1").Name; got != away {
		t.Fatalf("after override placed on %s, want %s", got, away)
	}
	if got, ok := st.OverrideFor("s1"); !ok || got != ov {
		t.Fatalf("OverrideFor = %+v, %v; want %+v", got, ok, ov)
	}
	if _, err := st.Override("s1", "nope", "", 0, ""); err == nil {
		t.Error("override naming unknown node accepted")
	}
	v := st.Version()
	st.DropOverride("s1")
	if got := st.Place("s1").Name; got != home {
		t.Fatalf("after drop placed on %s, want ring placement %s", got, home)
	}
	if st.Version() <= v {
		t.Error("drop did not bump the version")
	}
	if _, ok := st.OverrideFor("s1"); ok {
		t.Error("OverrideFor reports a dropped override")
	}
	dropV := st.Version()
	st.DropOverride("s1") // no-op drop must not bump again
	if st.Version() != dropV {
		t.Errorf("idempotent drop changed version to %d, want %d", st.Version(), dropV)
	}
	// The drop leaves a versioned tombstone, so it propagates: a peer
	// still gossiping the retired override must not re-infect us...
	stale := ClusterMap{Version: ov.Version, Nodes: threeNodes(),
		Overrides: map[string]ClusterOverride{"s1": ov}}
	if _, err := st.Merge(stale); err != nil {
		t.Fatal(err)
	}
	if got := st.Place("s1").Name; got != home {
		t.Fatalf("stale peer override resurrected the drop: s1 on %s, want %s", got, home)
	}
	// ...and the wire map carries the tombstone to peers, beating their
	// stale live override.
	wire := st.Map()
	ts, ok := wire.Overrides["s1"]
	if !ok || !ts.Deleted || ts.Version <= ov.Version {
		t.Fatalf("wire map tombstone %+v (present %v), want deleted with version > %d", ts, ok, ov.Version)
	}
	peer, err := NewPlacement(stale)
	if err != nil {
		t.Fatal(err)
	}
	if peer.Place("s1").Name != away {
		t.Fatal("peer fixture does not hold the stale override — test is vacuous")
	}
	if _, err := peer.Merge(wire); err != nil {
		t.Fatal(err)
	}
	if got := peer.Place("s1").Name; got != home {
		t.Fatalf("tombstone did not clear the peer's override: s1 on %s, want %s", got, home)
	}
}

// Merge adopts newer overrides, ignores older ones, and rejects maps
// describing a different cluster.
func TestPlacementMerge(t *testing.T) {
	st, err := NewPlacement(ClusterMap{Version: 1, Nodes: threeNodes()})
	if err != nil {
		t.Fatal(err)
	}
	peer := ClusterMap{Version: 5, Nodes: threeNodes(),
		Overrides: map[string]ClusterOverride{"s1": {Node: "c", Version: 5}}}
	changed, err := st.Merge(peer)
	if err != nil || !changed {
		t.Fatalf("merge: changed=%v err=%v", changed, err)
	}
	if st.Version() != 5 || st.Place("s1").Name != "c" {
		t.Fatalf("after merge: version %d, s1 on %s", st.Version(), st.Place("s1").Name)
	}
	// Replaying the same map is a no-op.
	if changed, err = st.Merge(peer); err != nil || changed {
		t.Fatalf("replayed merge: changed=%v err=%v", changed, err)
	}
	// A stale override must not roll the session back.
	stale := ClusterMap{Version: 2, Nodes: threeNodes(),
		Overrides: map[string]ClusterOverride{"s1": {Node: "a", Version: 2}}}
	if _, err := st.Merge(stale); err != nil {
		t.Fatal(err)
	}
	if st.Place("s1").Name != "c" {
		t.Errorf("stale override won: s1 on %s, want c", st.Place("s1").Name)
	}
	// Foreign node sets are a configuration error, not mergeable.
	alien := ClusterMap{Version: 9, Nodes: []ClusterNode{{Name: "z", URL: "http://z"}}}
	if _, err := st.Merge(alien); err == nil {
		t.Error("merge of a foreign node set accepted")
	}
}
