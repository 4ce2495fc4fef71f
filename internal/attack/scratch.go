package attack

import "leakydnn/internal/par"

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

// scratch is the process-wide free list every extraction borrows from: the
// GC never empties it, and it keeps at most GOMAXPROCS idle scratches, each
// the size of the largest extraction the process has run.
var scratch par.FreeList[extractScratch]
