package matrix

import (
	"math"

	"repro/internal/parallel"
)

// Vector helpers. Vectors are plain []float64; these functions implement
// the handful of BLAS-1 style operations the solver needs, with the same
// deterministic parallel reductions as the matrix kernels. Like the
// matrix kernels, each branches to a plain loop before building a fork
// closure: reductions only take the shortcut when the deterministic
// block tree has a single block, so results stay bit-for-bit identical.

// VecClone returns a copy of v.
func VecClone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Ones returns the all-ones vector of length n.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Basis returns the i-th standard basis vector of length n.
func Basis(n, i int) []float64 {
	v := make([]float64, n)
	v[i] = 1
	return v
}

// BasisInto overwrites v with the i-th standard basis vector.
func BasisInto(v []float64, i int) {
	for j := range v {
		v[j] = 0
	}
	v[i] = 1
}

// VecAdd computes dst = a + b elementwise.
func VecAdd(dst, a, b []float64) {
	if parallel.SerialBlock(len(dst), parallel.WorkGrain(1)) {
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
		return
	}
	parallel.ForBlock(len(dst), parallel.WorkGrain(1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a[i] + b[i]
		}
	})
}

// VecScale computes dst = s·a.
func VecScale(dst []float64, s float64, a []float64) {
	if parallel.SerialBlock(len(dst), parallel.WorkGrain(1)) {
		for i := range dst {
			dst[i] = s * a[i]
		}
		return
	}
	parallel.ForBlock(len(dst), parallel.WorkGrain(1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = s * a[i]
		}
	})
}

// VecAXPY computes dst += s·x.
func VecAXPY(dst []float64, s float64, x []float64) {
	if parallel.SerialBlock(len(dst), parallel.WorkGrain(2)) {
		for i := range dst {
			dst[i] += s * x[i]
		}
		return
	}
	parallel.ForBlock(len(dst), parallel.WorkGrain(2), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += s * x[i]
		}
	})
}

// VecLinComb computes dst += Σ_u coeffs[u]·vs[u] in one blocked pass:
// each dst entry is accumulated over u in index order, so the result is
// deterministic at any GOMAXPROCS. This is the batched update of
// classical Gram–Schmidt reorthogonalization (Lanczos), replacing
// len(vs) sequential AXPY sweeps with a single parallel one.
func VecLinComb(dst []float64, coeffs []float64, vs [][]float64) {
	if len(coeffs) != len(vs) {
		panic("matrix: VecLinComb length mismatch")
	}
	n := len(dst)
	for _, v := range vs {
		if len(v) != n {
			panic("matrix: VecLinComb vector length mismatch")
		}
	}
	grain := 2048/(len(vs)+1) + 1
	if parallel.SerialBlock(n, grain) {
		vecLinCombSeg(dst, coeffs, vs, 0, n)
		return
	}
	parallel.ForBlock(n, grain, func(lo, hi int) {
		vecLinCombSeg(dst, coeffs, vs, lo, hi)
	})
}

func vecLinCombSeg(dst, coeffs []float64, vs [][]float64, lo, hi int) {
	for u, v := range vs {
		c := coeffs[u]
		if c == 0 {
			continue
		}
		for i := lo; i < hi; i++ {
			dst[i] += c * v[i]
		}
	}
}

// VecDot returns Σ aᵢbᵢ with a deterministic block reduction.
func VecDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: VecDot length mismatch")
	}
	if parallel.OneBlock(len(a), 4096) {
		return dotSeg(a, b, 0, len(a))
	}
	return parallel.SumBlocks(len(a), 4096, func(lo, hi int) float64 {
		return dotSeg(a, b, lo, hi)
	})
}

func dotSeg(a, b []float64, lo, hi int) float64 {
	// Reslicing lets the compiler elide per-element bounds checks.
	as, bs := a[lo:hi], b[lo:hi]
	var s float64
	for i, v := range as {
		s += v * bs[i]
	}
	return s
}

// VecMultiDot computes out[u] = VecDot(a, vs[u]) for every u in one
// fused pass: a is streamed once per block across four vs rows at a
// time, instead of once per dot. This is the projection half of the
// Lanczos CGS2 sweep (the update half is VecLinComb), where the same w
// is dotted against the whole Krylov basis. Every out[u] follows the
// exact block decomposition and combine order of a separate VecDot
// call, so results are bit-for-bit identical to the unfused loop.
func VecMultiDot(out, a []float64, vs [][]float64) {
	if len(out) != len(vs) {
		panic("matrix: VecMultiDot length mismatch")
	}
	n := len(a)
	for _, v := range vs {
		if len(v) != n {
			panic("matrix: VecMultiDot vector length mismatch")
		}
	}
	for u := range out {
		out[u] = 0
	}
	blocks := parallel.BlockCount(n, 4096)
	if blocks == 1 {
		// Block partials are never −0 (the accumulator starts at +0 and
		// x + (−x) rounds to +0), so accumulating one partial onto the
		// zeroed slot assigns it bitwise.
		multiDotSeg(out, a, vs, 0, n)
		return
	}
	if parallel.Workers() == 1 {
		// Replay VecDot's sequential block combine for every u at once:
		// same blocks, same ascending-order partial sums.
		for b := 0; b < blocks; b++ {
			multiDotSeg(out, a, vs, b*n/blocks, (b+1)*n/blocks)
		}
		return
	}
	// Forked path: each dot is its own deterministic reduction. The
	// fused replay would need a blocks×len(vs) partial buffer; the
	// per-dot form already forks and stays bit-identical.
	for u, v := range vs {
		out[u] = VecDot(a, v)
	}
}

// multiDotSeg adds the partial dots of a[lo:hi] against every vs row
// onto out, four rows per pass over a. Each row's partial is a single
// accumulator over l ascending, exactly as dotSeg computes it, and is
// added onto out[u] exactly as SumBlocks adds block partials.
func multiDotSeg(out, a []float64, vs [][]float64, lo, hi int) {
	as := a[lo:hi]
	u := 0
	for ; u+3 < len(vs); u += 4 {
		b0 := vs[u][lo:hi][:len(as)]
		b1 := vs[u+1][lo:hi][:len(as)]
		b2 := vs[u+2][lo:hi][:len(as)]
		b3 := vs[u+3][lo:hi][:len(as)]
		var s0, s1, s2, s3 float64
		for l, av := range as {
			s0 += av * b0[l]
			s1 += av * b1[l]
			s2 += av * b2[l]
			s3 += av * b3[l]
		}
		out[u] += s0
		out[u+1] += s1
		out[u+2] += s2
		out[u+3] += s3
	}
	for ; u < len(vs); u++ {
		bs := vs[u][lo:hi][:len(as)]
		var s float64
		for l, av := range as {
			s += av * bs[l]
		}
		out[u] += s
	}
}

// VecSum returns Σ aᵢ.
func VecSum(a []float64) float64 {
	if parallel.OneBlock(len(a), 4096) {
		return sumSeg(a, 0, len(a))
	}
	return parallel.SumBlocks(len(a), 4096, func(lo, hi int) float64 {
		return sumSeg(a, lo, hi)
	})
}

func sumSeg(a []float64, lo, hi int) float64 {
	var s float64
	for _, v := range a[lo:hi] {
		s += v
	}
	return s
}

// VecNorm2 returns the Euclidean norm.
func VecNorm2(a []float64) float64 {
	return math.Sqrt(VecDot(a, a))
}

// VecNorm1 returns Σ |aᵢ|.
func VecNorm1(a []float64) float64 {
	if parallel.OneBlock(len(a), 4096) {
		return norm1Seg(a, 0, len(a))
	}
	return parallel.SumBlocks(len(a), 4096, func(lo, hi int) float64 {
		return norm1Seg(a, lo, hi)
	})
}

func norm1Seg(a []float64, lo, hi int) float64 {
	var s float64
	for _, v := range a[lo:hi] {
		s += math.Abs(v)
	}
	return s
}

// VecMax returns the maximum entry; it panics on empty input.
func VecMax(a []float64) float64 {
	if len(a) == 0 {
		panic("matrix: VecMax of empty vector")
	}
	if parallel.OneBlock(len(a), 0) {
		m := a[0]
		for _, v := range a[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	return parallel.MaxFloat(len(a), func(i int) float64 { return a[i] })
}

// VecMin returns the minimum entry; it panics on empty input.
func VecMin(a []float64) float64 {
	if len(a) == 0 {
		panic("matrix: VecMin of empty vector")
	}
	if parallel.OneBlock(len(a), 0) {
		m := a[0]
		for _, v := range a[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	return -parallel.MaxFloat(len(a), func(i int) float64 { return -a[i] })
}

// Normalize scales v to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := VecNorm2(v)
	if n == 0 {
		return 0
	}
	VecScale(v, 1/n, v)
	return n
}
