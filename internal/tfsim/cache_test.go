package tfsim

import (
	"reflect"
	"testing"

	"leakydnn/internal/dnn"
	"leakydnn/internal/zoo"
)

// TestCompileCacheSharesEqualModels: sessions of equal models share one
// capped op slice equal to a fresh Compile, and a model differing in any
// layer field gets its own.
func TestCompileCacheSharesEqualModels(t *testing.T) {
	m := zoo.TinyCNN()
	a, err := NewSession(m, DefaultConfig(1), testDevice())
	if err != nil {
		t.Fatal(err)
	}
	clone := m
	clone.Layers = append([]dnn.Layer(nil), m.Layers...)
	b, err := NewSession(clone, DefaultConfig(2), testDevice())
	if err != nil {
		t.Fatal(err)
	}
	if &a.Ops()[0] != &b.Ops()[0] {
		t.Fatal("equal models compiled twice")
	}
	if cap(a.Ops()) != len(a.Ops()) {
		t.Fatalf("shared ops have capacity %d past length %d", cap(a.Ops()), len(a.Ops()))
	}
	want, err := dnn.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ops(), want) {
		t.Fatal("cached ops differ from a fresh Compile")
	}

	// Mutating the caller's layers after the fact must not reach the cache.
	clone.Layers[0].NumFilters++
	c, err := NewSession(clone, DefaultConfig(1), testDevice())
	if err != nil {
		t.Fatal(err)
	}
	if &c.Ops()[0] == &a.Ops()[0] {
		t.Fatal("a model with a different layer shared the cached ops")
	}
	if want, _ := dnn.Compile(clone); !reflect.DeepEqual(c.Ops(), want) {
		t.Fatal("the changed model's ops differ from a fresh Compile")
	}
}

// TestTagSlabReuseReadsZero cuts and fills tags, resets the slab, and cuts
// again: the reused blocks hand out zeroed tags, no dead collection's op
// pointers, and the slab allocates no new block for the same demand.
func TestTagSlabReuseReadsZero(t *testing.T) {
	var slab TagSlab
	op := &dnn.Op{Kind: dnn.OpConv2D}
	fill := func() [][]IterOp {
		var cuts [][]IterOp
		for _, n := range []int{3000, 3000, 5000, 7} {
			tags := slab.take(n)
			for i := range tags {
				if tags[i] != (IterOp{}) {
					t.Fatalf("take(%d) handed out a used tag %+v at %d", n, tags[i], i)
				}
				tags[i] = IterOp{Op: op, Iteration: 9}
			}
			cuts = append(cuts, tags)
		}
		return cuts
	}
	first := fill()
	blocks := len(slab.blocks)
	for i := range first[1:] {
		if &first[i][0] == &first[i+1][0] {
			t.Fatal("two cuts of one collection share memory")
		}
	}
	slab.Reset()
	fill()
	if len(slab.blocks) != blocks {
		t.Fatalf("reuse grew the slab from %d to %d blocks", blocks, len(slab.blocks))
	}
	if &slab.blocks[0][0] != &first[0][0] {
		t.Fatal("Reset did not rewind to the first retained block")
	}
}
