package gbdt

import (
	"encoding/gob"
	"fmt"
	"io"
)

// nodeRec is the flat, gob-friendly form of one tree node. Children are
// indices into the flattened slice; -1 marks a leaf.
type nodeRec struct {
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Value     float64
}

// snapshot is the serializable form of a classifier.
type snapshot struct {
	Cfg   Config
	Base  float64
	Dim   int
	Trees [][]nodeRec
}

// Save writes the classifier to w.
func (c *Classifier) Save(w io.Writer) error {
	snap := snapshot{Cfg: c.cfg, Base: c.base, Dim: c.dim}
	for _, tree := range c.trees {
		var flat []nodeRec
		flatten(tree, &flat)
		snap.Trees = append(snap.Trees, flat)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("gbdt: save: %w", err)
	}
	return nil
}

// Load reads a classifier previously written by Save.
func Load(r io.Reader) (*Classifier, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	if snap.Dim <= 0 {
		return nil, fmt.Errorf("gbdt: load: invalid feature dim %d", snap.Dim)
	}
	c := &Classifier{cfg: snap.Cfg, base: snap.Base, dim: snap.Dim}
	for i, flat := range snap.Trees {
		root, end, err := unflatten(flat, 0, snap.Dim)
		if err == nil && end != len(flat) {
			err = fmt.Errorf("%d nodes past the tree", len(flat)-end)
		}
		if err != nil {
			return nil, fmt.Errorf("gbdt: load: tree %d: %w", i, err)
		}
		c.trees = append(c.trees, root)
	}
	return c, nil
}

// flatten appends the subtree rooted at n to out in pre-order and returns
// its index.
func flatten(n *node, out *[]nodeRec) int {
	idx := len(*out)
	*out = append(*out, nodeRec{Feature: n.feature, Threshold: n.threshold, Value: n.value, Left: -1, Right: -1})
	if n.feature >= 0 {
		left := flatten(n.left, out)
		right := flatten(n.right, out)
		(*out)[idx].Left = left
		(*out)[idx].Right = right
	}
	return idx
}

// unflatten rebuilds the subtree flatten stored at index i and returns it
// with the index just past it. Children must sit exactly where flatten puts
// them — the left subtree right after its parent, the right one right after
// the left — so every node is built once and the recursion ends: a hostile
// tree whose child indices loop or share a subtree is an error, not an
// endless or exponential rebuild. A split must name a feature below dim.
func unflatten(flat []nodeRec, i, dim int) (*node, int, error) {
	if i < 0 || i >= len(flat) {
		return nil, 0, fmt.Errorf("node index %d out of range", i)
	}
	rec := flat[i]
	n := &node{feature: rec.Feature, threshold: rec.Threshold, value: rec.Value}
	next := i + 1
	if rec.Feature < 0 {
		return n, next, nil
	}
	if rec.Feature >= dim {
		return nil, 0, fmt.Errorf("node %d splits on feature %d of %d", i, rec.Feature, dim)
	}
	var err error
	if rec.Left != next {
		return nil, 0, fmt.Errorf("node %d has left child %d, want %d (not pre-order)", i, rec.Left, next)
	}
	if n.left, next, err = unflatten(flat, next, dim); err != nil {
		return nil, 0, err
	}
	if rec.Right != next {
		return nil, 0, fmt.Errorf("node %d has right child %d, want %d (not pre-order)", i, rec.Right, next)
	}
	if n.right, next, err = unflatten(flat, next, dim); err != nil {
		return nil, 0, err
	}
	return n, next, nil
}
