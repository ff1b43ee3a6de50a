package parsetree

import "wfreach/internal/label"

// IsSpecial reports whether the node is an L, F or R node.
func (n *Node) IsSpecial() bool { return n.Kind != label.N }

// Root returns the tree root.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// MaxFanout returns the maximum out-degree in the subtree (θ_t).
func (n *Node) MaxFanout() int {
	max := len(n.Children)
	for _, c := range n.Children {
		if f := c.MaxFanout(); f > max {
			max = f
		}
	}
	return max
}

// Walk visits every node of the subtree in preorder.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}
