package mat

import (
	"context"
	"fmt"

	"leakydnn/internal/par"
)

// This file holds the batched matrix-matrix kernels the LSTM engine runs
// on. A per-sequence gemv is latency-bound: each output element is one long
// chain of dependent floating-point adds, so a modern core spends ~4 cycles
// per element waiting on the adder. A GEMM shapes the same arithmetic into
// many independent accumulator chains (a streamed row of memory
// accumulators in GemmInto/GemmTAAccum), which keeps the FP units busy
// instead of stalled.
//
// Two properties are load-bearing and pinned by tests:
//
//   - Per-cell accumulation order is fixed. Every output cell sums its
//     products in ascending reduction-index order (k for GemmInto, the
//     shared leading dimension p for GemmTAAccum), which is exactly the
//     order of the textbook per-sequence LSTM: a GemmInto call with m=1 is
//     bit-identical to a row-order vector-matrix product, and a GemmTAAccum
//     call with p=1 to one outer-product accumulation — the property the
//     Batch=1 golden hashes rest on.
//   - Parallelism only partitions output cells across workers, never the
//     reduction inside a cell, so results are byte-identical for every
//     worker count (including 0 = GOMAXPROCS).
//
// The kernels follow the package non-finite policy: no zero-skip shortcuts,
// NaN/Inf operands always propagate.
//
// The kernels take row-major float64 buffers plus explicit dimensions so
// callers with pooled flat buffers (the batched LSTM scratch) pay no
// per-call header allocation. Each has two row loops with identical
// per-cell arithmetic: the AVX one in gemm_simd.go, taken when the CPU has
// AVX, and the pure-Go one here, the only path on other CPUs and
// architectures.

// gemmParallelMin is the minimum m*k*n product volume before the
// partitioned path fans out; below it goroutine dispatch costs more
// than the split saves. 2^16 multiply-adds is ~20µs of serial work.
const gemmParallelMin = 1 << 16

// GemmInto computes dst = a·b for row-major buffers: a is m×k, b is k×n,
// dst is m×n and is overwritten. Each dst cell accumulates its products in
// ascending k order (bit-identical to a row-order vector-matrix product
// when m=1). dst must not alias a or b. workers <= 1 runs serially; larger
// values partition dst rows, which cannot change the result.
func GemmInto(dst, a, b []float64, m, k, n, workers int) {
	checkGemm("gemminto", len(dst), len(a), len(b), m*n, m*k, k*n)
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*k*n < gemmParallelMin {
		gemmIntoRows(dst, a, b, k, n, 0, m)
		return
	}
	// The row tasks return no error, and the background ctx is never done.
	_, _ = par.MapCtx(context.Background(), workers, workers, func(w int) (struct{}, error) {
		lo, hi := partition(m, workers, w)
		gemmIntoRows(dst, a, b, k, n, lo, hi)
		return struct{}{}, nil
	})
}

// gemmIntoRows computes dst rows [i0,i1) of GemmInto.
func gemmIntoRows(dst, a, b []float64, k, n, i0, i1 int) {
	if hasAVX {
		gemmIntoRowsAVX(dst, a, b, k, n, i0, i1)
		return
	}
	gemmIntoRowsGo(dst, a, b, k, n, i0, i1)
}

// gemmIntoRowsGo walks b's rows outermost: b (usually a weight matrix much
// larger than the m×n dst) is streamed exactly once per call, while the dst
// rows it scatters into stay L1-resident. Cell (i,j) still accumulates its
// products in ascending p order — the same order a vector-matrix product
// uses — the nest only changes which cell is visited when.
// Like gemmTAAccumRowsGo, four b rows are folded per pass with explicitly
// sequenced adds, so each dst element is loaded and stored once per four
// products while every cell still sums in ascending p order.
func gemmIntoRowsGo(dst, a, b []float64, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		drow := dst[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		b0 := b[(p+0)*n : (p+0)*n+n]
		b1 := b[(p+1)*n : (p+1)*n+n]
		b2 := b[(p+2)*n : (p+2)*n+n]
		b3 := b[(p+3)*n : (p+3)*n+n]
		for i := i0; i < i1; i++ {
			ar := a[i*k+p:]
			a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
			drow := dst[i*n:][:len(b0)]
			for j := range drow {
				v := drow[j] + a0*b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				drow[j] = v + a3*b3[j]
			}
		}
	}
	for ; p < k; p++ {
		brow := b[p*n : p*n+n]
		for i := i0; i < i1; i++ {
			av := a[i*k+p]
			drow := dst[i*n:][:len(brow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// GemmTAAccum computes dst += aᵀ·b for row-major buffers: a is p×m, b is
// p×n, dst is m×n and is accumulated into. Each dst cell receives its p
// products one at a time in ascending p order — with p=1 this is exactly
// one outer-product accumulation, which is how the batched backward pass stays bit-identical
// to the per-sequence gradient accumulation at Batch=1. dst must not alias
// a or b. workers partition dst rows.
func GemmTAAccum(dst, a, b []float64, p, m, n, workers int) {
	checkGemm("gemmtaaccum", len(dst), len(a), len(b), m*n, p*m, p*n)
	if workers > m {
		workers = m
	}
	if workers <= 1 || p*m*n < gemmParallelMin {
		gemmTAAccumRows(dst, a, b, p, m, n, 0, m)
		return
	}
	// The row tasks return no error, and the background ctx is never done.
	_, _ = par.MapCtx(context.Background(), workers, workers, func(w int) (struct{}, error) {
		lo, hi := partition(m, workers, w)
		gemmTAAccumRows(dst, a, b, p, m, n, lo, hi)
		return struct{}{}, nil
	})
}

// gemmTAAccumRows accumulates dst rows [i0,i1) of GemmTAAccum.
func gemmTAAccumRows(dst, a, b []float64, p, m, n, i0, i1 int) {
	if hasAVX {
		gemmTAAccumRowsAVX(dst, a, b, p, m, n, i0, i1)
		return
	}
	gemmTAAccumRowsGo(dst, a, b, p, m, n, i0, i1)
}

// gemmTAAccumRowsGo keeps the dst row outermost: each row receives all p of
// its rank-1 contributions while it is hot in L1, instead of streaming the
// whole (often cache-sized) dst matrix once per p. Four s-contributions are
// folded per pass with explicitly sequenced adds — v accumulates a0·b0,
// then a1·b1, then a2·b2, then a3·b3, exactly the ascending-s order the
// scalar loop uses — so dst is loaded and stored once per four products
// instead of once per product, without changing a single cell's bits.
func gemmTAAccumRowsGo(dst, a, b []float64, p, m, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		drow := dst[i*n : i*n+n]
		s := 0
		for ; s+4 <= p; s += 4 {
			a0 := a[(s+0)*m+i]
			a1 := a[(s+1)*m+i]
			a2 := a[(s+2)*m+i]
			a3 := a[(s+3)*m+i]
			b0 := b[(s+0)*n:][:len(drow)]
			b1 := b[(s+1)*n:][:len(drow)]
			b2 := b[(s+2)*n:][:len(drow)]
			b3 := b[(s+3)*n:][:len(drow)]
			for j := range drow {
				v := drow[j] + a0*b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				drow[j] = v + a3*b3[j]
			}
		}
		for ; s < p; s++ {
			av := a[s*m+i]
			brow := b[s*n:][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// partition splits n items into parts near-equal ranges and returns the
// half-open bounds of part i. Only the assignment of cells to workers
// depends on the split, never any cell's value.
func partition(n, parts, i int) (lo, hi int) {
	q, r := n/parts, n%parts
	lo = i * q
	if i < r {
		lo += i
	} else {
		lo += r
	}
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

func checkGemm(op string, dl, al, bl, dWant, aWant, bWant int) {
	if dl != dWant || al != aWant || bl != bWant {
		panic(fmt.Sprintf("mat: %s buffer sizes dst=%d a=%d b=%d, want dst=%d a=%d b=%d",
			op, dl, al, bl, dWant, aWant, bWant))
	}
}
