package matrix

import (
	"repro/internal/parallel"
)

// Blocked symmetric and batched kernels. These are the dense hot paths
// of the solver: every Algorithm 3.1 iteration on the dense oracle is
// one spectral reconstruction (CongruenceDiag) plus n pointwise
// products (DotMany), and the Taylor path of Lemma 4.2 is a chain of
// symmetric multiplies (SymMulAB). All kernels fork via
// parallel.ForBlock with deterministic block decompositions, so results
// are bit-for-bit identical at any GOMAXPROCS.
//
// Every kernel has an *Into variant writing into caller-provided
// storage; the allocating form is a thin wrapper. Into variants first
// zero any rows they accumulate into, so a recycled workspace matrix
// behaves exactly like a fresh one. The hot loops live in plain
// top-level functions (closures optimize measurably worse), and each
// kernel branches to the sequential path before constructing its fork
// closure so steady-state small-size calls allocate nothing (see
// parallel.SerialBlock).

// SymMulAB returns a·b for square a, b whose product is known to be
// symmetric (e.g. commuting symmetric matrices, such as polynomials in
// a common matrix). Only the upper triangle is computed — roughly half
// the work of MulAB — and mirrored, so the result is exactly symmetric.
// Analytic cost: work R·K·C, depth O(log K).
func SymMulAB(a, b *Dense, st *parallel.Stats) *Dense {
	out := New(a.R, b.C)
	SymMulABInto(out, a, b, st)
	return out
}

// SymMulABInto computes out = a·b as SymMulAB, into out (zeroed first).
// out must not alias a or b.
func SymMulABInto(out, a, b *Dense, st *parallel.Stats) {
	if a.C != b.R || a.R != b.C || a.R != a.C {
		panic(dimErr("SymMulAB", a, b))
	}
	if out.R != a.R || out.C != b.C {
		panic(dimErr("SymMulABInto", out, a))
	}
	n := a.R
	grain := parallel.WorkGrain(n*n/2 + 1)
	if parallel.SerialBlock(n, grain) {
		symMulRows(a.Data, b.Data, out.Data, n, 0, n)
	} else {
		parallel.ForBlock(n, grain, func(lo, hi int) {
			symMulRows(a.Data, b.Data, out.Data, n, lo, hi)
		})
	}
	mirrorUpper(out)
	st.Add(int64(n)*int64(n)*int64(n), parallel.Log2(n))
}

// symMulRows computes rows [lo, hi) of the upper triangle of a·b in
// 3-row register tiles (see tile.go). Each full tile accumulates the
// rectangle j ∈ [tile base, n) — up to two sub-diagonal entries per
// tile, which mirrorUpper overwrites — so the tile body stays
// rectangular. Remainder rows accumulate j ∈ [i, n) exactly as before.
func symMulRows(ad, bd, od []float64, n, lo, hi int) {
	i := lo
	for ; i+2 < hi; i += 3 {
		for r := i; r < i+3; r++ {
			seg := od[r*n+i : (r+1)*n]
			for j := range seg {
				seg[j] = 0
			}
		}
		axpyTiles(ad, bd, od, n, n, i, i+3, i, n)
	}
	for ; i < hi; i++ {
		seg := od[i*n+i : (i+1)*n]
		for j := range seg {
			seg[j] = 0
		}
		axpyTiles(ad, bd, od, n, n, i, i+1, i, n)
	}
}

// Gram returns q·qᵀ, the Gram matrix of the rows of q — the dense form
// of the paper's factored constraints Aᵢ = QᵢQᵢᵀ. Only the upper
// triangle is computed and mirrored. Analytic cost: work R²·C, depth
// O(log C).
func Gram(q *Dense, st *parallel.Stats) *Dense {
	out := New(q.R, q.R)
	GramInto(out, q, st)
	return out
}

// GramInto computes out = q·qᵀ into out. out must not alias q.
func GramInto(out, q *Dense, st *parallel.Stats) {
	n, k := q.R, q.C
	if out.R != n || out.C != n {
		panic(dimErr("GramInto", out, q))
	}
	grain := parallel.WorkGrain(n*k/2 + 1)
	if parallel.SerialBlock(n, grain) {
		gramRows(q.Data, out.Data, n, k, 0, n)
	} else {
		parallel.ForBlock(n, grain, func(lo, hi int) {
			gramRows(q.Data, out.Data, n, k, lo, hi)
		})
	}
	mirrorUpper(out)
	st.Add(int64(n)*int64(n)*int64(k), parallel.Log2(k))
}

// gramRows computes rows [lo, hi) of the upper triangle of q·qᵀ in 2×4
// register tiles under an L2 row-panel sweep (see tile.go). Every entry
// is assigned (not accumulated), so dirty output storage is fine; full
// tiles assign the rectangle j ∈ [tile base, n), whose sub-diagonal
// entry mirrorUpper overwrites.
func gramRows(qd, od []float64, n, k, lo, hi int) {
	p := panelDim(k)
	for jb := 0; jb < n; jb += p {
		je := jb + p
		if je > n {
			je = n
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			js := jb
			if i > js {
				js = i
			}
			if js < je {
				dotTiles(qd, qd, od, k, n, i, i+2, js, je)
			}
		}
		for ; i < hi; i++ {
			js := jb
			if i > js {
				js = i
			}
			if js < je {
				dotTiles(qd, qd, od, k, n, i, i+1, js, je)
			}
		}
	}
}

// CongruenceDiag returns v·diag(d)·vᵀ treating the rows of v as the
// congruence frame: out[i][j] = Σ_l v[i][l]·d[l]·v[j][l]. This is the
// spectral reconstruction V f(Λ) Vᵀ at the heart of the dense
// exponential oracle. Only the upper triangle is computed and mirrored.
// Analytic cost: work R²·C, depth O(log C).
func CongruenceDiag(v *Dense, d []float64, st *parallel.Stats) *Dense {
	out := New(v.R, v.R)
	CongruenceDiagInto(out, v, d, st)
	return out
}

// CongruenceDiagInto computes out = v·diag(d)·vᵀ into out. out must not
// alias v.
func CongruenceDiagInto(out, v *Dense, d []float64, st *parallel.Stats) {
	if v.C != len(d) {
		panic("matrix: CongruenceDiag dimension mismatch")
	}
	n, k := v.R, v.C
	if out.R != n || out.C != n {
		panic(dimErr("CongruenceDiagInto", out, v))
	}
	grain := parallel.WorkGrain(n*k/2 + 1)
	if parallel.SerialBlock(n, grain) {
		congruenceRows(v.Data, d, out.Data, n, k, 0, n)
	} else {
		parallel.ForBlock(n, grain, func(lo, hi int) {
			congruenceRows(v.Data, d, out.Data, n, k, lo, hi)
		})
	}
	mirrorUpper(out)
	st.Add(int64(2)*int64(n)*int64(n)*int64(k), parallel.Log2(k))
}

// congruenceRows computes rows [lo, hi) of the upper triangle of
// v·diag(d)·vᵀ in 2×4 register tiles (see congruenceTiles); every term
// keeps the scalar loop's (v[i][l]·d[l])·v[j][l] association. Every
// entry is assigned, so dirty output is fine; full tiles assign the
// rectangle j ∈ [tile base, n), whose sub-diagonal entry mirrorUpper
// overwrites.
func congruenceRows(vd, d, od []float64, n, k, lo, hi int) {
	p := panelDim(k)
	for jb := 0; jb < n; jb += p {
		je := jb + p
		if je > n {
			je = n
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			js := jb
			if i > js {
				js = i
			}
			if js < je {
				congruenceTiles(vd, d, od, k, n, i, i+2, js, je)
			}
		}
		for ; i < hi; i++ {
			js := jb
			if i > js {
				js = i
			}
			if js < je {
				congruenceTiles(vd, d, od, k, n, i, i+1, js, je)
			}
		}
	}
}

// DotMany computes out[i] = scale·(as[i] • p) for every i: the batched
// A•X inner products that turn one density matrix into all n constraint
// ratios. Each inner product is summed sequentially (so per-entry
// results are independent of the blocking), and the batch is blocked
// over constraints. Analytic cost: work 2·n·len(p), depth O(log n).
func DotMany(out []float64, as []*Dense, scale float64, p *Dense) {
	if len(out) != len(as) {
		panic("matrix: DotMany length mismatch")
	}
	sz := len(p.Data)
	// Validate before forking so a mismatch panics in the caller's
	// goroutine, not inside a spawned worker.
	for _, a := range as {
		if len(a.Data) != sz {
			panic(dimErr("DotMany", a, p))
		}
	}
	grain := parallel.WorkGrain(sz)
	if parallel.SerialBlock(len(as), grain) {
		dotManyRows(out, as, scale, p, 0, len(as))
		return
	}
	parallel.ForBlock(len(as), grain, func(lo, hi int) {
		dotManyRows(out, as, scale, p, lo, hi)
	})
}

// dotManyRows runs four constraints' dot products per pass over p, as
// four independent sequential chains: every sum still takes its terms
// in ascending entry order with a single accumulator, so out is bitwise
// the one-constraint loop's, while four add chains are in flight.
func dotManyRows(out []float64, as []*Dense, scale float64, p *Dense, lo, hi int) {
	pd := p.Data
	i := lo
	for ; i+3 < hi; i += 4 {
		a0, a1, a2, a3 := as[i].Data[:len(pd)], as[i+1].Data[:len(pd)], as[i+2].Data[:len(pd)], as[i+3].Data[:len(pd)]
		var s0, s1, s2, s3 float64
		for k, v := range pd {
			s0 += a0[k] * v
			s1 += a1[k] * v
			s2 += a2[k] * v
			s3 += a3[k] * v
		}
		out[i], out[i+1], out[i+2], out[i+3] = scale*s0, scale*s1, scale*s2, scale*s3
	}
	for ; i < hi; i++ {
		a := as[i].Data[:len(pd)]
		var s float64
		for k, v := range pd {
			s += a[k] * v
		}
		out[i] = scale * s
	}
}

// LinComb overwrites dst with Σᵢ coeffs[i]·mats[i], blocked over matrix
// entries. Every entry is accumulated over i in index order, so the
// result is deterministic at any GOMAXPROCS. Matrices with a zero
// coefficient are skipped. Analytic cost: work n·len(dst), depth
// O(log n).
func LinComb(dst *Dense, coeffs []float64, mats []*Dense) {
	if len(coeffs) != len(mats) {
		panic("matrix: LinComb length mismatch")
	}
	sz := len(dst.Data)
	for _, m := range mats {
		if len(m.Data) != sz || m.R != dst.R {
			panic(dimErr("LinComb", dst, m))
		}
	}
	grain := parallel.WorkGrain(2 * len(mats))
	if parallel.SerialBlock(sz, grain) {
		linCombSeg(dst, coeffs, mats, 0, sz)
		return
	}
	parallel.ForBlock(sz, grain, func(lo, hi int) {
		linCombSeg(dst, coeffs, mats, lo, hi)
	})
}

func linCombSeg(dst *Dense, coeffs []float64, mats []*Dense, lo, hi int) {
	seg := dst.Data[lo:hi]
	for k := range seg {
		seg[k] = 0
	}
	for i, m := range mats {
		c := coeffs[i]
		if c == 0 {
			continue
		}
		src := m.Data[lo:hi]
		for k, v := range src {
			seg[k] += c * v
		}
	}
}

// mirrorUpper copies the strictly upper triangle of the square matrix m
// onto the strictly lower triangle, in parallel over rows.
func mirrorUpper(m *Dense) {
	n := m.R
	grain := parallel.WorkGrain(n/2 + 1)
	if parallel.SerialBlock(n, grain) {
		mirrorRows(m.Data, n, 0, n)
		return
	}
	parallel.ForBlock(n, grain, func(lo, hi int) {
		mirrorRows(m.Data, n, lo, hi)
	})
}

func mirrorRows(md []float64, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := i + 1; j < n; j++ {
			md[j*n+i] = md[i*n+j]
		}
	}
}
