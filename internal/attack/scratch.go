package attack

import (
	"runtime"
	"sync"
)

// matrix is reusable memory for a row-major [][]float64 whose rows are
// slices of one backing array. The zero value holds nothing, so filling it
// allocates exactly what a fresh matrix needs.
type matrix struct {
	rows    [][]float64
	backing []float64
}

// reserve returns n rows and a backing of length size, reusing m's memory
// when it is big enough and growing it to exactly that size otherwise. The
// rows and backing hold whatever a previous fill left; the caller overwrites
// every row and as much of the backing as it reads.
func (m *matrix) reserve(n, size int) ([][]float64, []float64) {
	if cap(m.rows) < n {
		m.rows = make([][]float64, n)
	}
	if cap(m.backing) < size {
		m.backing = make([]float64, size)
	}
	return m.rows[:n], m.backing[:size]
}

// extractScratch is one extraction's reusable working memory: the scaled
// feature matrix and the Mlong and Mop vote matrices. These are the bulk of
// what an extraction allocates and all of it dies with the extraction, so
// a server extracting upload after upload hands them on instead of
// regrowing them for every trace.
//
// Ownership rule: a scratch belongs to at most one running extraction, and
// nothing reachable from a returned Recovery points into it — the split,
// the per-iteration predictions, the voted classes and the Mhp classes are
// all fresh slices the models return. Reuse is therefore invisible: an
// extraction on warm scratch gives the same Recovery as one on fresh
// memory.
type extractScratch struct {
	features, longVotes, opVotes matrix
}

// scratchSet is a bounded free list of idle extraction scratch. Unlike a
// sync.Pool it is never emptied by the garbage collector, so the allocation
// of a warm extraction does not depend on GC timing. It keeps at most
// GOMAXPROCS idle entries — one per extraction that can run at once — so
// what it retains is bounded by that many of the largest extractions the
// process has run. The zero value is ready to use.
type scratchSet struct {
	mu   sync.Mutex
	idle []*extractScratch
}

// scratch is the process-wide set every extraction borrows from.
var scratch scratchSet

// get borrows an idle scratch, or a new empty one.
func (s *scratchSet) get() *extractScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return new(extractScratch)
	}
	sc := s.idle[n-1]
	s.idle[n-1] = nil
	s.idle = s.idle[:n-1]
	return sc
}

// put returns a borrowed scratch whose extraction has finished; past the
// idle limit it is left to the garbage collector.
func (s *scratchSet) put(sc *extractScratch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idle) < runtime.GOMAXPROCS(0) {
		s.idle = append(s.idle, sc)
	}
}
