package mat

import "fmt"

// This file holds the batched matrix-matrix kernels the LSTM engine runs
// on. A per-sequence gemv is latency-bound: each output element is one long
// chain of dependent floating-point adds, so a modern core spends ~4 cycles
// per element waiting on the adder. A GEMM shapes the same arithmetic into
// many independent accumulator chains (a streamed row of memory
// accumulators in GemmInto/GemmTAAccum), which keeps the FP units busy
// instead of stalled.
//
// Per-cell accumulation order is fixed and pinned by tests. Every output
// cell sums its products in ascending reduction-index order (k for
// GemmInto, the shared leading dimension p for GemmTAAccum), which is
// exactly the order of the textbook per-sequence LSTM: a GemmInto call with
// m=1 is bit-identical to a row-order vector-matrix product, and a
// GemmTAAccum call with p=1 to one outer-product accumulation — the
// property the Batch=1 golden hashes rest on.
//
// A kernel never forks: a call is serial work on the calling goroutine.
// Parallelism lives one level up, where the attack trains independent
// networks side by side.
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

// GemmInto computes dst = a·b for row-major buffers: a is m×k, b is k×n,
// dst is m×n and is overwritten. Each dst cell accumulates its products in
// ascending k order (bit-identical to a row-order vector-matrix product
// when m=1). dst must not alias a or b.
func GemmInto(dst, a, b []float64, m, k, n int) {
	checkGemm("gemminto", len(dst), len(a), len(b), m*n, m*k, k*n)
	if hasAVX {
		gemmIntoRowsAVX(dst, a, b, m, k, n)
		return
	}
	gemmIntoRowsGo(dst, a, b, m, k, n)
}

// gemmIntoRowsGo walks b's rows outermost: b (usually a weight matrix much
// larger than the m×n dst) is streamed exactly once per call, while the dst
// rows it scatters into stay L1-resident. Cell (i,j) still accumulates its
// products in ascending p order — the same order a vector-matrix product
// uses — the nest only changes which cell is visited when.
// Like gemmTAAccumRowsGo, four b rows are folded per pass with explicitly
// sequenced adds, so each dst element is loaded and stored once per four
// products while every cell still sums in ascending p order.
func gemmIntoRowsGo(dst, a, b []float64, m, k, n int) {
	clear(dst)
	p := 0
	for ; p+4 <= k; p += 4 {
		b0 := b[(p+0)*n : (p+0)*n+n]
		b1 := b[(p+1)*n : (p+1)*n+n]
		b2 := b[(p+2)*n : (p+2)*n+n]
		b3 := b[(p+3)*n : (p+3)*n+n]
		for i := range m {
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
		for i := range m {
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
// a or b.
func GemmTAAccum(dst, a, b []float64, p, m, n int) {
	checkGemm("gemmtaaccum", len(dst), len(a), len(b), m*n, p*m, p*n)
	if hasAVX {
		gemmTAAccumRowsAVX(dst, a, b, p, m, n)
		return
	}
	gemmTAAccumRowsGo(dst, a, b, p, m, n)
}

// gemmTAAccumRowsGo keeps the dst row outermost: each row receives all p of
// its rank-1 contributions while it is hot in L1, instead of streaming the
// whole (often cache-sized) dst matrix once per p. Four s-contributions are
// folded per pass with explicitly sequenced adds — v accumulates a0·b0,
// then a1·b1, then a2·b2, then a3·b3, exactly the ascending-s order the
// scalar loop uses — so dst is loaded and stored once per four products
// instead of once per product, without changing a single cell's bits.
func gemmTAAccumRowsGo(dst, a, b []float64, p, m, n int) {
	for i := range m {
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

func checkGemm(op string, dl, al, bl, dWant, aWant, bWant int) {
	if dl != dWant || al != aWant || bl != bWant {
		panic(fmt.Sprintf("mat: %s buffer sizes dst=%d a=%d b=%d, want dst=%d a=%d b=%d",
			op, dl, al, bl, dWant, aWant, bWant))
	}
}
