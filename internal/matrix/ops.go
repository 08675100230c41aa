package matrix

import (
	"repro/internal/parallel"
)

// Elementwise helpers branch to a plain loop before building their fork
// closure (see parallel.SerialBlock): small inputs and GOMAXPROCS=1
// then allocate nothing, and the computed values are identical because
// elementwise loops do not depend on the block decomposition.

// Add computes dst = a + b. dst may alias a or b.
func Add(dst, a, b *Dense) {
	if a.R != b.R || a.C != b.C || dst.R != a.R || dst.C != a.C {
		panic(dimErr("Add", a, b))
	}
	if parallel.SerialBlock(len(a.Data), parallel.WorkGrain(1)) {
		addSeg(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.ForBlock(len(a.Data), parallel.WorkGrain(1), func(lo, hi int) {
		addSeg(dst.Data, a.Data, b.Data, lo, hi)
	})
}

func addSeg(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a − b. dst may alias a or b.
func Sub(dst, a, b *Dense) {
	if a.R != b.R || a.C != b.C || dst.R != a.R || dst.C != a.C {
		panic(dimErr("Sub", a, b))
	}
	if parallel.SerialBlock(len(a.Data), parallel.WorkGrain(1)) {
		subSeg(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.ForBlock(len(a.Data), parallel.WorkGrain(1), func(lo, hi int) {
		subSeg(dst.Data, a.Data, b.Data, lo, hi)
	})
}

func subSeg(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] - b[i]
	}
}

// Scale computes dst = s·a. dst may alias a.
func Scale(dst *Dense, s float64, a *Dense) {
	if dst.R != a.R || dst.C != a.C {
		panic(dimErr("Scale", dst, a))
	}
	VecScale(dst.Data, s, a.Data)
}

// AXPY computes dst += s·x.
func AXPY(dst *Dense, s float64, x *Dense) {
	if dst.R != x.R || dst.C != x.C {
		panic(dimErr("AXPY", dst, x))
	}
	VecAXPY(dst.Data, s, x.Data)
}

// AXPYMany computes dst += Σ_j s[j]·xs[idx[j]], adding up to four terms
// per pass over dst. Each entry takes its additions in j order, one
// rounded multiply and add at a time, so the result is bitwise that of
// calling AXPY(dst, s[j], xs[idx[j]]) for j = 0, 1, …; only the number
// of passes over dst changes. Blocked over entries like VecAXPY.
func AXPYMany(dst *Dense, s []float64, xs []*Dense, idx []int) {
	if len(s) != len(idx) {
		panic("matrix: AXPYMany length mismatch")
	}
	for _, i := range idx {
		if xs[i].R != dst.R || xs[i].C != dst.C {
			panic(dimErr("AXPYMany", dst, xs[i]))
		}
	}
	if parallel.SerialBlock(len(dst.Data), parallel.WorkGrain(2*len(idx))) {
		axpyManySeg(dst.Data, s, xs, idx, 0, len(dst.Data))
		return
	}
	parallel.ForBlock(len(dst.Data), parallel.WorkGrain(2*len(idx)), func(lo, hi int) {
		axpyManySeg(dst.Data, s, xs, idx, lo, hi)
	})
}

func axpyManySeg(dst, s []float64, xs []*Dense, idx []int, lo, hi int) {
	d := dst[lo:hi]
	j := 0
	for ; j+3 < len(idx); j += 4 {
		s0, s1, s2, s3 := s[j], s[j+1], s[j+2], s[j+3]
		x0, x1 := xs[idx[j]].Data[lo:hi], xs[idx[j+1]].Data[lo:hi]
		x2, x3 := xs[idx[j+2]].Data[lo:hi], xs[idx[j+3]].Data[lo:hi]
		x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
		for k, v := range d {
			v += s0 * x0[k]
			v += s1 * x1[k]
			v += s2 * x2[k]
			v += s3 * x3[k]
			d[k] = v
		}
	}
	for ; j < len(idx); j++ {
		s0, x0 := s[j], xs[idx[j]].Data[lo:hi]
		x0 = x0[:len(d)]
		for k := range d {
			d[k] += s0 * x0[k]
		}
	}
}

// AddScaledIdentity computes m += s·I in place. m must be square.
func AddScaledIdentity(m *Dense, s float64) {
	if !m.IsSquare() {
		panic("matrix: AddScaledIdentity of non-square matrix")
	}
	for i := 0; i < m.R; i++ {
		m.Data[i*m.C+i] += s
	}
}

// Dot returns the pointwise (Frobenius) inner product
// A • B = Σᵢⱼ AᵢⱼBᵢⱼ. For symmetric A, B this equals Tr[AB], the
// operation written A • B throughout the paper.
func Dot(a, b *Dense) float64 {
	if a.R != b.R || a.C != b.C {
		panic(dimErr("Dot", a, b))
	}
	return VecDot(a.Data, b.Data)
}

// TraceProd returns Tr[AB] = Σᵢⱼ Aᵢⱼ Bⱼᵢ for general (not necessarily
// symmetric) square matrices of equal dimension.
func TraceProd(a, b *Dense) float64 {
	if a.R != b.C || a.C != b.R {
		panic(dimErr("TraceProd", a, b))
	}
	n := a.R
	if parallel.OneBlock(n, 8) {
		return traceProdSeg(a, b, 0, n)
	}
	return parallel.SumBlocks(n, 8, func(lo, hi int) float64 {
		return traceProdSeg(a, b, lo, hi)
	})
}

func traceProdSeg(a, b *Dense, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.C : (i+1)*a.C]
		for j, v := range arow {
			s += v * b.Data[j*b.C+i]
		}
	}
	return s
}

// MulAB returns the product a·b as a new matrix, computed with a
// parallel row-blocked kernel. Analytic cost: work 2·R·K·C, depth
// O(log K) in the fork-join model.
func MulAB(a, b *Dense, st *parallel.Stats) *Dense {
	out := New(a.R, b.C)
	MulABInto(out, a, b, st)
	return out
}

// MulABInto computes out = a·b into out (zeroed first). out must not
// alias a or b.
func MulABInto(out, a, b *Dense, st *parallel.Stats) {
	if a.C != b.R {
		panic(dimErr("MulAB", a, b))
	}
	if out.R != a.R || out.C != b.C {
		panic(dimErr("MulABInto", out, b))
	}
	k, c := a.C, b.C
	ad, bd, od := a.Data, b.Data, out.Data
	// The hot loop lives in a plain top-level function: loop bodies
	// inside closures optimize measurably worse (bounds-check and
	// register allocation quality), and this kernel is the hottest in
	// the dense path.
	grain := parallel.WorkGrain(k * c)
	if parallel.SerialBlock(a.R, grain) {
		mulRowsAB(ad, bd, od, k, c, 0, a.R)
	} else {
		parallel.ForBlock(a.R, grain, func(lo, hi int) {
			mulRowsAB(ad, bd, od, k, c, lo, hi)
		})
	}
	st.Add(int64(2*a.R)*int64(k)*int64(c), parallel.Log2(k))
}

// mulRowsAB computes rows [lo, hi) of the product: od rows accumulate
// ad-row-scaled bd rows, after a zeroing sweep so recycled output
// storage behaves like a fresh matrix. The work runs in 3-row register
// tiles under an L2 k-chunk sweep (see tile.go); each output entry
// still accumulates over l in increasing order, so results are
// bit-for-bit identical to the single-row loop.
func mulRowsAB(ad, bd, od []float64, k, c, lo, hi int) {
	zero := od[lo*c : hi*c]
	for j := range zero {
		zero[j] = 0
	}
	axpyTiles(ad, bd, od, k, c, lo, hi, 0, c)
}

// MulABT returns a·bᵀ. Both operands are traversed row-major, which is
// the cache-friendly orientation, so MulABT is preferred where either
// formulation works.
func MulABT(a, b *Dense, st *parallel.Stats) *Dense {
	if a.C != b.C {
		panic(dimErr("MulABT", a, b))
	}
	out := New(a.R, b.R)
	k := a.C
	grain := parallel.WorkGrain(k * b.R)
	if parallel.SerialBlock(a.R, grain) {
		mulRowsABT(a.Data, b.Data, out.Data, k, b.R, 0, a.R)
	} else {
		parallel.ForBlock(a.R, grain, func(lo, hi int) {
			mulRowsABT(a.Data, b.Data, out.Data, k, b.R, lo, hi)
		})
	}
	st.Add(int64(2*a.R)*int64(k)*int64(b.R), parallel.Log2(k))
	return out
}

// mulRowsABT computes rows [lo, hi) of a·bᵀ in 4×4 register tiles under
// an L2 row-panel sweep (see tile.go); each dot runs over l ascending,
// bitwise identical to the scalar loop.
func mulRowsABT(ad, bd, od []float64, k, bn, lo, hi int) {
	p := panelDim(k)
	for jb := 0; jb < bn; jb += p {
		je := jb + p
		if je > bn {
			je = bn
		}
		dotTiles(ad, bd, od, k, bn, lo, hi, jb, je)
	}
}

// MulATB returns aᵀ·b.
func MulATB(a, b *Dense, st *parallel.Stats) *Dense {
	if a.R != b.R {
		panic(dimErr("MulATB", a, b))
	}
	out := New(a.C, b.C)
	// Accumulate rank-1 updates row by row of a and b; parallelize over
	// output rows by transposing the loop structure: out[i][j] = Σ_l a[l][i] b[l][j].
	grain := parallel.WorkGrain(a.R * b.C)
	if parallel.SerialBlock(a.C, grain) {
		mulRowsATB(a, b, out, 0, a.C)
	} else {
		parallel.ForBlock(a.C, grain, func(lo, hi int) {
			mulRowsATB(a, b, out, lo, hi)
		})
	}
	st.Add(int64(2*a.C)*int64(a.R)*int64(b.C), parallel.Log2(a.R))
	return out
}

func mulRowsATB(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out.Data[i*b.C : (i+1)*b.C]
		for l := 0; l < a.R; l++ {
			av := a.Data[l*a.C+i]
			if av == 0 {
				continue
			}
			brow := b.Data[l*b.C : (l+1)*b.C]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns m·v.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.C != len(v) {
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]float64, m.R)
	m.MulVecTo(out, v)
	return out
}

// MulVecTo computes dst = m·v. dst must not alias v.
func (m *Dense) MulVecTo(dst, v []float64) {
	if m.C != len(v) || m.R != len(dst) {
		panic("matrix: MulVecTo dimension mismatch")
	}
	grain := parallel.WorkGrain(m.C)
	if parallel.SerialBlock(m.R, grain) {
		mulVecRows(m.Data, dst, v, m.C, 0, m.R)
		return
	}
	parallel.ForBlock(m.R, grain, func(lo, hi int) {
		mulVecRows(m.Data, dst, v, m.C, lo, hi)
	})
}

func mulVecRows(md, dst, v []float64, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := md[i*c : (i+1)*c]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// QuadForm returns vᵀ·m·v for square m.
func (m *Dense) QuadForm(v []float64) float64 {
	if !m.IsSquare() || m.C != len(v) {
		panic("matrix: QuadForm dimension mismatch")
	}
	if parallel.OneBlock(m.R, 8) {
		return quadFormSeg(m, v, 0, m.R)
	}
	return parallel.SumBlocks(m.R, 8, func(lo, hi int) float64 {
		return quadFormSeg(m, v, lo, hi)
	})
}

func quadFormSeg(m *Dense, v []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var ri float64
		for j, rv := range row {
			ri += rv * v[j]
		}
		s += v[i] * ri
	}
	return s
}
