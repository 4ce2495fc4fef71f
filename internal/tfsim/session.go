// Package tfsim emulates the DNN system stack of the victim: a
// TensorFlow-like session that compiles a model into its per-iteration op
// sequence, feeds the resulting kernels to the GPU simulator iteration after
// iteration (serialized on the compute stream, with host gaps between
// iterations), and — when tracing is enabled — records the timeline the
// adversary uses to label her profiling data, in the same spirit as
// TensorFlow's timeline module.
package tfsim

import (
	"fmt"
	"slices"
	"sync"

	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
)

// Config controls a training session.
type Config struct {
	// Iterations is the number of training iterations to run.
	Iterations int
	// IterGap is the host-side pause between iterations (input pipeline,
	// optimizer bookkeeping, H2D transfer). During it the GPU is idle from
	// the victim's side — the NOP period Mgap detects.
	IterGap gpu.Nanos
}

// DefaultConfig returns a session configuration with a realistic
// inter-iteration host gap.
func DefaultConfig(iterations int) Config {
	return Config{Iterations: iterations, IterGap: 4 * gpu.Millisecond}
}

// IterOp tags every victim kernel with its op and training iteration; the
// timeline and the dataset builder read it back from kernel spans.
type IterOp struct {
	Op        *dnn.Op
	Iteration int
}

// Session is one victim training process.
type Session struct {
	ops []dnn.Op
	cfg Config
	dev gpu.DeviceConfig
}

// NewSession compiles the model and prepares its training run.
func NewSession(m dnn.Model, cfg Config, dev gpu.DeviceConfig) (*Session, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("tfsim: iterations must be positive, got %d", cfg.Iterations)
	}
	if cfg.IterGap < 0 {
		return nil, fmt.Errorf("tfsim: negative iteration gap %d", cfg.IterGap)
	}
	ops, err := compileCached(m)
	if err != nil {
		return nil, err
	}
	return &Session{ops: ops, cfg: cfg, dev: dev}, nil
}

// Ops returns the compiled per-iteration op sequence. Every session of an
// equal model shares one slice, so it is read-only: callers must not write
// its elements (appending is safe, as the slice is capped at its length).
func (s *Session) Ops() []dnn.Op { return s.ops }

// maxCompiled bounds the compile cache. A process sees a handful of zoo
// models and per-scale profiled sets; one that cycles through more distinct
// models just starts the cache over.
const maxCompiled = 256

// compileKey holds the scalar fields of a dnn.Model; entries under one key
// are told apart by comparing their layers.
type compileKey struct {
	name      string
	input     dnn.Shape
	batch     int
	optimizer dnn.OptimizerKind
}

type compiledModel struct {
	layers []dnn.Layer
	ops    []dnn.Op
}

var compiled struct {
	mu sync.Mutex
	m  map[compileKey][]compiledModel
	n  int
}

// compileCached returns dnn.Compile(m), compiling each distinct model once
// per process. The model is matched field by field, so two models share ops
// exactly when Compile could not tell them apart; the cache keeps its own
// copy of the layers, so a caller reusing its Layers slice cannot alias an
// entry. Errors are not cached.
func compileCached(m dnn.Model) ([]dnn.Op, error) {
	key := compileKey{name: m.Name, input: m.Input, batch: m.Batch, optimizer: m.Optimizer}
	compiled.mu.Lock()
	for _, e := range compiled.m[key] {
		if slices.Equal(e.layers, m.Layers) {
			compiled.mu.Unlock()
			return e.ops, nil
		}
	}
	compiled.mu.Unlock()
	ops, err := dnn.Compile(m)
	if err != nil {
		return nil, err
	}
	ops = ops[:len(ops):len(ops)]
	compiled.mu.Lock()
	defer compiled.mu.Unlock()
	if compiled.m == nil || compiled.n >= maxCompiled {
		compiled.m = make(map[compileKey][]compiledModel)
		compiled.n = 0
	}
	compiled.m[key] = append(compiled.m[key], compiledModel{layers: slices.Clone(m.Layers), ops: ops})
	compiled.n++
	return ops, nil
}

// OpsPerIteration returns the length of one iteration's op sequence.
func (s *Session) OpsPerIteration() int { return len(s.ops) }

// IterationDuration returns the exclusive-device time of one iteration.
func (s *Session) IterationDuration() gpu.Nanos {
	return dnn.IterationDuration(s.ops, s.dev)
}

// Source returns a fresh kernel source feeding Iterations repetitions of the
// op sequence to the GPU engine, separated by the host gap.
func (s *Session) Source() gpu.Source {
	return s.SourceWith(nil)
}

// SourceWith is Source with the per-iteration kernel-tag slabs cut from the
// given slab instead of freshly allocated. Every session feeding one engine
// may share one slab (the engine loop is single-goroutine); a nil slab falls
// back to per-iteration allocation.
func (s *Session) SourceWith(tags *TagSlab) gpu.Source {
	return &sessionSource{session: s, slab: tags}
}

// TagSlab amortizes the per-iteration IterOp slabs of one collection's
// sessions into large blocks, and keeps those blocks across collections.
// Tag pointers cut from a slab stay valid until Reset — between Resets the
// slab only ever appends within a block and moves on to the next block when
// one is full, never overwriting a cut tag — so Reset must only be called
// once the engine that consumed the tags is gone. The zero value is ready to
// use. Not safe for concurrent use.
type TagSlab struct {
	blocks [][]IterOp
	// next is the index of the block the slab moves to when the current one,
	// blocks[next-1], is full; off is the cut offset in the current block.
	next int
	off  int
}

// tagBlockLen is the size of a slab block, and maxTagBlocks bounds how many
// blocks Reset keeps for the next collection.
const (
	tagBlockLen  = 4096
	maxTagBlocks = 16
)

// Reset rewinds the slab to its first block. Outstanding tag pointers from
// before the Reset become invalid; the blocks they point into are cleared
// before take hands any of them out again.
func (ts *TagSlab) Reset() {
	if ts == nil {
		return
	}
	if len(ts.blocks) > maxTagBlocks {
		clear(ts.blocks[maxTagBlocks:])
		ts.blocks = ts.blocks[:maxTagBlocks]
	}
	ts.next, ts.off = 0, 0
}

// take cuts n IterOps from the slab, moving to the next retained block (or
// a new one) when the current one is full; a nil slab degrades to plain
// allocation.
func (ts *TagSlab) take(n int) []IterOp {
	if ts == nil {
		return make([]IterOp, n)
	}
	if ts.next == 0 || ts.off+n > len(ts.blocks[ts.next-1]) {
		ts.nextBlock(n)
	}
	b := ts.blocks[ts.next-1]
	out := b[ts.off : ts.off+n : ts.off+n]
	ts.off += n
	return out
}

// nextBlock moves the slab to its next block, of at least n tags: a retained
// block is cleared (its tags belong to a dead collection), and one too small
// for n is replaced.
func (ts *TagSlab) nextBlock(n int) {
	i := ts.next
	ts.next++
	ts.off = 0
	if i < len(ts.blocks) && len(ts.blocks[i]) >= n {
		clear(ts.blocks[i])
		return
	}
	b := make([]IterOp, max(n, tagBlockLen))
	if i < len(ts.blocks) {
		ts.blocks[i] = b
	} else {
		ts.blocks = append(ts.blocks, b)
	}
}

type sessionSource struct {
	session *Session
	iter    int
	opIdx   int
	// tags is the current iteration's IterOp slab. Kernel tags are pointers
	// into it, so boxing a fresh 16-byte interface payload per kernel launch
	// becomes one slab allocation per iteration. A new slab is cut per
	// iteration (never recycled in place) because the engine may still hold
	// queued kernels — and therefore tag pointers — from the previous
	// iteration when the next one starts feeding. slab, when non-nil, is
	// where the slices are cut from.
	tags []IterOp
	slab *TagSlab
}

// Next implements gpu.Source.
func (src *sessionSource) Next(now gpu.Nanos) (gpu.KernelProfile, gpu.Nanos, bool) {
	s := src.session
	if src.iter >= s.cfg.Iterations {
		return gpu.KernelProfile{}, 0, false
	}
	if src.opIdx == 0 {
		src.tags = src.slab.take(len(s.ops))
		for i := range src.tags {
			src.tags[i] = IterOp{Op: &s.ops[i], Iteration: src.iter}
		}
	}
	op := &s.ops[src.opIdx]
	k := op.Kernel(s.dev)
	k.Tag = &src.tags[src.opIdx]

	notBefore := now
	if src.opIdx == 0 {
		notBefore = now + s.cfg.IterGap
	}

	src.opIdx++
	if src.opIdx == len(s.ops) {
		src.opIdx = 0
		src.iter++
	}
	return k, notBefore, true
}
