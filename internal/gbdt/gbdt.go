// Package gbdt implements gradient-boosted decision trees with a logistic
// objective — the from-scratch substitute for LightGBM that MoSConS's Mgap
// iteration splitter uses to classify every CUPTI sample as NOP or BUSY —
// plus the MinMaxScaler preprocessing the paper applies to Mgap's inputs.
package gbdt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"leakydnn/internal/mat"
)

// Config controls boosting.
type Config struct {
	// Rounds is the number of boosted trees (default 50).
	Rounds int
	// MaxDepth bounds each tree (default 4).
	MaxDepth int
	// LearningRate is the shrinkage applied to each tree (default 0.15).
	LearningRate float64
	// Lambda is the L2 leaf regularizer (default 1).
	Lambda float64
	// MinLeaf is the minimum samples per leaf (default 4).
	MinLeaf int
}

func (c *Config) defaults() error {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.15
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 4
	}
	if c.Rounds < 0 || c.MaxDepth < 1 || c.LearningRate <= 0 || c.Lambda < 0 || c.MinLeaf < 1 {
		return fmt.Errorf("gbdt: invalid config %+v", *c)
	}
	return nil
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64
}

func (n *node) predict(x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Classifier is a trained binary gradient-boosted model.
type Classifier struct {
	cfg   Config
	base  float64 // prior log-odds
	trees []*node
	dim   int
}

// Train fits a classifier on features X and binary labels y.
func Train(x [][]float64, y []int, cfg Config) (*Classifier, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("gbdt: %d feature rows for %d labels", len(x), len(y))
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, errors.New("gbdt: zero-dimensional features")
	}
	var pos int
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("gbdt: row %d has dim %d, want %d", i, len(row), dim)
		}
		switch y[i] {
		case 0:
		case 1:
			pos++
		default:
			return nil, fmt.Errorf("gbdt: label %d at row %d, want 0 or 1", y[i], i)
		}
	}

	// Prior log-odds, clamped away from degeneracy.
	p := (float64(pos) + 0.5) / (float64(len(y)) + 1)
	c := &Classifier{cfg: cfg, base: math.Log(p / (1 - p)), dim: dim}

	scores := make([]float64, len(x))
	for i := range scores {
		scores[i] = c.base
	}
	grad := make([]float64, len(x))
	hess := make([]float64, len(x))
	idx := make([]int, len(x))
	s := grower{
		order: make([]sortPair, len(x)), // per-node sort scratch, shared by all trees
		right: make([]int, len(x)),      // per-node partition scratch, likewise
	}

	for round := 0; round < cfg.Rounds; round++ {
		// Growing a tree permutes idx in place, so each round starts over
		// from ascending row order.
		for i := range idx {
			idx[i] = i
		}
		for i := range x {
			pi := mat.Sigmoid(scores[i])
			grad[i] = pi - float64(y[i])
			hess[i] = pi * (1 - pi)
			if hess[i] < 1e-9 {
				hess[i] = 1e-9
			}
		}
		tree := c.buildNode(x, grad, hess, idx, &s, cfg.MaxDepth)
		c.trees = append(c.trees, tree)
		for i := range x {
			scores[i] += cfg.LearningRate * tree.predict(x[i])
		}
	}
	return c, nil
}

// sortPair carries one sample's feature value alongside its index so the
// split-search sort compares prefetched keys directly instead of chasing
// x[order[a]][f] through two pointer loads per comparison.
type sortPair struct {
	v float64
	i int
}

// grower is one Train call's tree-growing scratch, sized to the training
// set. Both buffers are dead by the time a node's children recurse, so one
// of each serves every node of every tree.
type grower struct {
	order []sortPair // the per-feature sort
	right []int      // the right child's rows while idx is partitioned
}

// buildNode recursively grows one regression tree over the sample indices
// idx, which it partitions in place: each child grows over its own
// subrange. The partition is stable, so every node sees its rows in the
// same ascending order, and sums them in the same order, as if each child
// had been handed a fresh filtered copy.
func (c *Classifier) buildNode(x [][]float64, grad, hess []float64, idx []int, s *grower, depth int) *node {
	var gSum, hSum float64
	for _, i := range idx {
		gSum += grad[i]
		hSum += hess[i]
	}
	value := -gSum / (hSum + c.cfg.Lambda)
	if depth == 0 || len(idx) < 2*c.cfg.MinLeaf {
		return &node{feature: -1, value: value}
	}

	bestGain := 0.0
	bestFeat := -1
	var bestThresh float64
	parentScore := gSum * gSum / (hSum + c.cfg.Lambda)

	order := s.order[:len(idx)]
	for f := 0; f < c.dim; f++ {
		for j, i := range idx {
			order[j] = sortPair{v: x[i][f], i: i}
		}
		// slices.SortFunc avoids sort.Slice's reflection-based swapper —
		// this sort dominates tree construction. Still deterministic: pdqsort
		// on a fixed input yields a fixed permutation.
		slices.SortFunc(order, func(a, b sortPair) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			default:
				return 0
			}
		})

		var gl, hl float64
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos].i
			gl += grad[i]
			hl += hess[i]
			// Can't split between equal values.
			if order[pos].v == order[pos+1].v {
				continue
			}
			nl, nr := pos+1, len(order)-pos-1
			if nl < c.cfg.MinLeaf || nr < c.cfg.MinLeaf {
				continue
			}
			gr, hr := gSum-gl, hSum-hl
			gain := gl*gl/(hl+c.cfg.Lambda) + gr*gr/(hr+c.cfg.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (order[pos].v + order[pos+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &node{feature: -1, value: value}
	}

	// Left rows compact forward in place; right rows wait in s.right and
	// follow them.
	nl, right := 0, s.right[:0]
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      c.buildNode(x, grad, hess, idx[:nl], s, depth-1),
		right:     c.buildNode(x, grad, hess, idx[nl:], s, depth-1),
	}
}

// PredictProb returns P(label=1 | x).
func (c *Classifier) PredictProb(x []float64) (float64, error) {
	if len(x) != c.dim {
		return 0, fmt.Errorf("gbdt: input dim %d, want %d", len(x), c.dim)
	}
	score := c.base
	for _, tree := range c.trees {
		score += c.cfg.LearningRate * tree.predict(x)
	}
	return mat.Sigmoid(score), nil
}

// Predict returns the hard label for x.
func (c *Classifier) Predict(x []float64) (int, error) {
	p, err := c.PredictProb(x)
	if err != nil {
		return 0, err
	}
	if p >= 0.5 {
		return 1, nil
	}
	return 0, nil
}
