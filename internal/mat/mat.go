// Package mat provides the small numeric kernel under the learning
// components of the MoSConS reproduction (the LSTM inference models and the
// gradient-boosted trees): row-major GEMM kernels over flat float64 buffers,
// the exp and tanh the package owns with their activation rows, the Adam
// update and a handful of vector helpers. Shapes are checked so dimension
// bugs fail fast.
//
// Non-finite policy: every kernel follows IEEE-754 propagation — a NaN or
// Inf operand always reaches the result (0×Inf = NaN, 0×NaN = NaN), even
// when the other operand is zero. No kernel may skip work in a way that
// could swallow a non-finite contribution; an overflowing gradient must
// surface as NaN/Inf at the output, not silently vanish because it was
// multiplied by a structural zero.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// checkDims rejects negative shapes and shapes whose element count
// overflows int — without the product guard, rows*cols wraps around, the
// backing slice gets a wrong (possibly tiny) size, and indexing mis-maps
// instead of failing fast.
func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	if cols != 0 && rows > math.MaxInt/cols {
		panic(fmt.Sprintf("mat: dimensions %dx%d overflow int", rows, cols))
	}
}

// RandnT draws a rows×cols matrix with entries from N(0, scale²) in
// row-major index order and returns its transpose: the row-major cols×rows
// buffer whose element [c*rows+r] holds draw (r, c).
func RandnT(rows, cols int, scale float64, rng *rand.Rand) []float64 {
	checkDims(rows, cols)
	out := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = rng.NormFloat64() * scale
		}
	}
	return out
}
