package gbdt

import "leakydnn/internal/wire"

// nodeMinBytes is the least a tree takes on the wire: one leaf's flag and
// value.
const nodeMinBytes = 1 + 8

// Walk walks the config in wire order.
func (cfg *Config) Walk(c *wire.Codec) {
	c.Int(&cfg.Rounds)
	c.Int(&cfg.MaxDepth)
	c.Float(&cfg.LearningRate)
	c.Float(&cfg.Lambda)
	c.Int(&cfg.MinLeaf)
}

// Walk walks the classifier in wire order: its config, prior log-odds,
// feature dim and trees, each tree's nodes in pre-order. A node is a split
// flag, then a leaf's value, or a split's feature, threshold and two
// subtrees. A decode fills a zero Classifier; a split on a feature past the
// dim, or deeper than the config's MaxDepth, fails it.
func (cl *Classifier) Walk(c *wire.Codec) {
	cl.cfg.Walk(c)
	c.Float(&cl.base)
	c.Int(&cl.dim)
	if c.Decoding() && cl.dim <= 0 {
		c.Fail("gbdt: invalid feature dim")
		return
	}
	wire.Slice(c, &cl.trees, "tree", nodeMinBytes)
	for i := range cl.trees {
		cl.walkNode(&cl.trees[i], c, 0)
	}
}

// walkNode walks the subtree *p whose root sits depth splits below its
// tree's root. A failed decode reads every later flag as a leaf, so the
// recursion ends.
func (cl *Classifier) walkNode(p **node, c *wire.Codec, depth int) {
	if c.Decoding() {
		*p = &node{feature: -1}
	}
	n := *p
	if !c.Present(n.feature >= 0) {
		c.Float(&n.value)
		return
	}
	if c.Decoding() && depth >= cl.cfg.MaxDepth {
		c.Fail("gbdt: tree deeper than MaxDepth")
		return
	}
	c.Int(&n.feature)
	if c.Decoding() && (n.feature < 0 || n.feature >= cl.dim) {
		c.Fail("gbdt: split on a feature past the dim")
		return
	}
	c.Float(&n.threshold)
	cl.walkNode(&n.left, c, depth+1)
	cl.walkNode(&n.right, c, depth+1)
}
