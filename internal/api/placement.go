package api

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"sync"
)

// Placement is part of the contract: the SDK and every node of a
// cluster run this code over the same ClusterMap and must name the same
// owner for every session. A ring places by consistent hashing; a
// Placement adds the versioned per-session overrides moves install.

// pointsPerWeight is the number of virtual ring points per unit of
// node weight. 64 points keep the load spread within a few percent of
// proportional for small clusters while the ring stays tiny.
const pointsPerWeight = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node int // index into hashRing.nodes
}

// hashRing places session names on nodes by consistent hashing: each node
// contributes weight×64 virtual points, a session maps to the first
// point clockwise of its hash. Adding or removing one node only moves
// the sessions that hashed to that node's points — the property that
// makes future membership changes cheap. A ring is immutable once
// built.
type hashRing struct {
	nodes  []ClusterNode
	points []ringPoint
}

// newRing builds the ring over a validated node set.
func newRing(nodes []ClusterNode) *hashRing {
	r := &hashRing{nodes: append([]ClusterNode(nil), nodes...)}
	for i, n := range r.nodes {
		w := n.Weight
		if w <= 0 {
			w = 1
		}
		for p := 0; p < w*pointsPerWeight; p++ {
			// FNV values of near-identical strings ("a#0", "a#1", …)
			// are heavily correlated, which bunches a node's points on
			// one stretch of the ring; the finalizer scatters them.
			r.points = append(r.points, ringPoint{hash: mix64(hash64(fmt.Sprintf("%s#%d", n.Name, p))), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Colliding points order by node name so every ring over the
		// same node set agrees on the winner.
		return r.nodes[r.points[a].node].Name < r.nodes[r.points[b].node].Name
	})
	return r
}

// Place returns the node owning the session by hash placement alone
// (overrides are the Placement's business, see Placement.Place).
func (r *hashRing) Place(session string) ClusterNode {
	// Session names come in correlated families too ("load-0",
	// "load-1", …), so the key gets the same avalanche as the points —
	// without it a dozen sibling sessions can all land on one arc.
	h := mix64(hash64(session))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the top of the ring
	}
	return r.nodes[r.points[i].node]
}

// hash64 is the ring's hash function. FNV-1a is stable across
// processes and platforms — a requirement, since clients and servers
// must compute identical placements — and plenty uniform for spreading
// sessions over a few dozen virtual points per node.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is a murmur3-style finalizer: a bijective avalanche over the
// point hashes so virtual points spread uniformly around the ring
// regardless of how correlated their source strings are. Like the
// hash, it must never change — placement depends on it.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Placement is a node's (or client's) live view of the cluster map: the
// immutable ring plus the mutable, versioned override set. All methods
// are safe for concurrent use.
type Placement struct {
	ring *hashRing

	mu        sync.RWMutex
	version   int64
	overrides map[string]ClusterOverride
}

// NewPlacement builds a Placement over a map that passes Validate.
func NewPlacement(m ClusterMap) (*Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	p := &Placement{ring: newRing(m.Nodes), version: m.Version, overrides: make(map[string]ClusterOverride)}
	for sess, ov := range m.Overrides {
		p.overrides[sess] = ov
		p.version = max(p.version, ov.Version)
	}
	return p, nil
}

// Validate checks the map's internal consistency: non-empty unique node
// names, absolute http(s) base URLs, non-negative weights, and
// overrides that name known nodes.
func (m ClusterMap) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("no nodes")
	}
	names := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("node %d has no name", i)
		}
		if names[n.Name] {
			return fmt.Errorf("duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		if err := checkBaseURL(n.URL); err != nil {
			return fmt.Errorf("node %q: %w", n.Name, err)
		}
		if n.Follower != "" {
			if err := checkBaseURL(n.Follower); err != nil {
				return fmt.Errorf("node %q follower: %w", n.Name, err)
			}
		}
		if n.Weight < 0 {
			return fmt.Errorf("node %q: negative weight %d", n.Name, n.Weight)
		}
	}
	for sess, ov := range m.Overrides {
		if !names[ov.Node] && !ov.Deleted {
			return fmt.Errorf("override for session %q names unknown node %q", sess, ov.Node)
		}
	}
	return nil
}

// checkBaseURL requires an absolute http(s) URL with a host.
func checkBaseURL(s string) error {
	if s == "" {
		return fmt.Errorf("empty url")
	}
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("bad url %q: %w", s, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("url %q is not an absolute http(s) base url", s)
	}
	return nil
}

// Version returns the current map version.
func (p *Placement) Version() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.version
}

// Place returns the node owning the session: its override if one is
// installed (tombstones don't count), else its hash placement.
func (p *Placement) Place(session string) ClusterNode {
	p.mu.RLock()
	ov, ok := p.overrides[session]
	p.mu.RUnlock()
	if ok && !ov.Deleted {
		if n, found := p.node(ov.Node); found {
			return n
		}
	}
	return p.ring.Place(session)
}

// OverrideFor returns the session's live placement override, if one is
// installed; tombstones report false.
func (p *Placement) OverrideFor(session string) (ClusterOverride, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ov, ok := p.overrides[session]
	if !ok || ov.Deleted {
		return ClusterOverride{}, false
	}
	return ov, true
}

// Override installs (or replaces) the session's placement override and
// bumps the map version past both the current version and the
// override's (a tombstone's included, so a re-created session's next
// move beats its old removal). It returns the installed override — the
// caller gossips it by answering with the new map. from names the
// releasing node, finalSeq its sealed final WAL sequence and
// chainHead the hash-chain head over the sealed log (hex); all may be
// zero for operator pins. Unknown node names are an error.
func (p *Placement) Override(session, node, from string, finalSeq int64, chainHead string) (ClusterOverride, error) {
	if _, ok := p.node(node); !ok {
		return ClusterOverride{}, fmt.Errorf("cluster: unknown node %q", node)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.version++
	if old, ok := p.overrides[session]; ok && old.Version >= p.version {
		p.version = old.Version + 1
	}
	ov := ClusterOverride{Node: node, Version: p.version, From: from, FinalSeq: finalSeq, ChainHead: chainHead}
	p.overrides[session] = ov
	return ov, nil
}

// DropOverride retires the session's override (a deleted session's
// placement reverts to the ring) by replacing it with a versioned
// tombstone rather than deleting the key: Merge can then tell "removed
// at version V" from "never heard of it", so the removal gossips and a
// peer's stale override cannot re-infect this node on its next probe.
// Tombstones are retained for the process lifetime — one small entry
// per deleted moved session.
func (p *Placement) DropOverride(session string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old, ok := p.overrides[session]
	if !ok || old.Deleted {
		return
	}
	p.version++
	if old.Version >= p.version {
		p.version = old.Version + 1
	}
	p.overrides[session] = ClusterOverride{Deleted: true, Version: p.version}
}

// Merge folds a peer's map into this one: per session, the override
// with the higher version wins (a session's overrides are serialized
// by its successive owners, so the higher version is the newer fact —
// tombstones compete in the same order, which is how removals spread);
// the version rises to the maximum seen. It reports whether anything
// changed. Node sets are static in this release and must match; a
// mismatched node is an error.
func (p *Placement) Merge(m ClusterMap) (bool, error) {
	for _, n := range m.Nodes {
		ours, ok := p.node(n.Name)
		if !ok || ours.URL != n.URL {
			return false, fmt.Errorf("cluster: peer map names unknown node %q (%s)", n.Name, n.URL)
		}
	}
	for sess, ov := range m.Overrides {
		if _, ok := p.node(ov.Node); !ok && !ov.Deleted {
			return false, fmt.Errorf("cluster: peer override for %q names unknown node %q", sess, ov.Node)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := false
	for sess, ov := range m.Overrides {
		if old, ok := p.overrides[sess]; !ok || ov.Version > old.Version {
			p.overrides[sess] = ov
			changed = true
		}
	}
	if m.Version > p.version {
		p.version = m.Version
		changed = true
	}
	return changed, nil
}

// Map snapshots the placement as a wire map.
func (p *Placement) Map() ClusterMap {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m := ClusterMap{Version: p.version, Nodes: append([]ClusterNode(nil), p.ring.nodes...)}
	if len(p.overrides) > 0 {
		m.Overrides = make(map[string]ClusterOverride, len(p.overrides))
		for k, v := range p.overrides {
			m.Overrides[k] = v
		}
	}
	return m
}

// node looks a node up by name in the ring's node set.
func (p *Placement) node(name string) (ClusterNode, bool) {
	return ClusterMap{Nodes: p.ring.nodes}.Node(name)
}
