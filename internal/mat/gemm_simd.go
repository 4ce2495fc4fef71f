package mat

// AVX row kernels behind GemmInto and GemmTAAccum, taken when the
// CPU has AVX. Structure and accumulation order are exactly those of the
// pure-Go loops — the axpy calls vectorize over output columns only, so
// every cell still receives its products one at a time in ascending
// reduction order and the results are byte-identical to the pure-Go path
// (TestGemmRowsGoMatchesAVX and the FP64 golden hashes in internal/lstm
// both pin this).

func gemmIntoRowsAVX(dst, a, b []float64, m, k, n int) {
	clear(dst)
	if n == 0 || m == 0 {
		return
	}
	p := 0
	for ; p+8 <= k; p += 8 {
		b0, b1, b2, b3 := &b[(p+0)*n], &b[(p+1)*n], &b[(p+2)*n], &b[(p+3)*n]
		b4, b5, b6, b7 := &b[(p+4)*n], &b[(p+5)*n], &b[(p+6)*n], &b[(p+7)*n]
		for i := range m {
			ar := a[i*k+p:]
			axpyOctAVX64(&dst[i*n], b0, b1, b2, b3, b4, b5, b6, b7, n, &ar[0])
		}
	}
	for ; p+4 <= k; p += 4 {
		b0 := b[(p+0)*n : (p+0)*n+n]
		b1 := b[(p+1)*n : (p+1)*n+n]
		b2 := b[(p+2)*n : (p+2)*n+n]
		b3 := b[(p+3)*n : (p+3)*n+n]
		for i := range m {
			ar := a[i*k+p:]
			axpyQuadAVX64(&dst[i*n], &b0[0], &b1[0], &b2[0], &b3[0], n,
				ar[0], ar[1], ar[2], ar[3])
		}
	}
	for ; p < k; p++ {
		brow := b[p*n : p*n+n]
		for i := range m {
			axpyAVX64(&dst[i*n], &brow[0], n, a[i*k+p])
		}
	}
}

func gemmTAAccumRowsAVX(dst, a, b []float64, p, m, n int) {
	if n == 0 || m == 0 {
		return
	}
	// The reduction dimension p is the (often tiny, shrinking) active batch,
	// while the row count m is the wide weight dimension — so loop s on the
	// outside and let the row-looping kernels sweep all dst rows per call.
	// Per cell the s order and mul/add chain are unchanged, so results stay
	// byte-identical to the pure-Go path. A's column strides by m, so for the
	// oct kernel the 8 coefficients per row are staged transposed, in chunks
	// so the scratch stays a small stack array.
	const chunk = 128
	var coefT [8 * chunk]float64
	s := 0
	for ; s+8 <= p; s += 8 {
		for c0 := 0; c0 < m; c0 += chunk {
			cr := min(chunk, m-c0)
			for r := 0; r < cr; r++ {
				i := c0 + r
				coefT[r*8+0] = a[(s+0)*m+i]
				coefT[r*8+1] = a[(s+1)*m+i]
				coefT[r*8+2] = a[(s+2)*m+i]
				coefT[r*8+3] = a[(s+3)*m+i]
				coefT[r*8+4] = a[(s+4)*m+i]
				coefT[r*8+5] = a[(s+5)*m+i]
				coefT[r*8+6] = a[(s+6)*m+i]
				coefT[r*8+7] = a[(s+7)*m+i]
			}
			taccumOctAVX64(&dst[c0*n], &coefT[0],
				&b[(s+0)*n], &b[(s+1)*n], &b[(s+2)*n], &b[(s+3)*n],
				&b[(s+4)*n], &b[(s+5)*n], &b[(s+6)*n], &b[(s+7)*n], cr, n)
		}
	}
	if s+4 <= p {
		for c0 := 0; c0 < m; c0 += chunk {
			cr := min(chunk, m-c0)
			for r := 0; r < cr; r++ {
				i := c0 + r
				coefT[r*4+0] = a[(s+0)*m+i]
				coefT[r*4+1] = a[(s+1)*m+i]
				coefT[r*4+2] = a[(s+2)*m+i]
				coefT[r*4+3] = a[(s+3)*m+i]
			}
			taccumQuadAVX64(&dst[c0*n], &coefT[0],
				&b[(s+0)*n], &b[(s+1)*n], &b[(s+2)*n], &b[(s+3)*n], cr, n)
		}
		s += 4
	}
	for ; s < p; s++ {
		taccumRank1AVX64(&dst[0], &a[s*m], &b[s*n], m, n)
	}
}
