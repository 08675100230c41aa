package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// CSC is a compressed sparse column matrix. It is the natural layout for
// the constraint factors Qᵢ (m rows, cᵢ columns): the solver needs
// Qᵀv (column dot products), Q·u (column-scaled accumulation), and
// S·Q for a dense sketch S, all of which stream over columns.
type CSC struct {
	R, C   int
	ColPtr []int // length C+1
	Row    []int
	Val    []float64
}

// NewCSC builds a CSC matrix from triplets; duplicates are summed and
// entries whose sum is exactly zero are dropped. The result is a
// canonical form: any two triplet lists describing the same multiset of
// (row, col, value) entries — in any order — build bitwise-identical
// matrices. Duplicates are therefore summed in a fixed value order
// (ascending IEEE 754 bit pattern), not document order: float addition
// is not associative, so summing {1e17, 1, -1e17} in two different
// document orders would otherwise yield different stored values — or
// leave a should-be-cancelled entry alive in one ordering and dropped
// as an exact zero in the other — and split the content digests of
// mathematically identical instances.
func NewCSC(r, c int, trips []Triplet) (*CSC, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("sparse: NewCSC(%d, %d): dimensions must be positive", r, c)
	}
	sorted := make([]Triplet, len(trips))
	copy(sorted, trips)
	for _, t := range sorted {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			return nil, fmt.Errorf("sparse: entry (%d, %d) out of range for %dx%d", t.Row, t.Col, r, c)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return math.Float64bits(sorted[i].Val) < math.Float64bits(sorted[j].Val)
	})
	m := &CSC{R: r, C: c, ColPtr: make([]int, c+1)}
	for k := 0; k < len(sorted); {
		t := sorted[k]
		v := t.Val
		k++
		for k < len(sorted) && sorted[k].Col == t.Col && sorted[k].Row == t.Row {
			v += sorted[k].Val
			k++
		}
		if v == 0 {
			continue
		}
		m.Row = append(m.Row, t.Row)
		m.Val = append(m.Val, v)
		m.ColPtr[t.Col+1]++
	}
	for j := 0; j < c; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m, nil
}

// CSCFromDense converts a dense matrix, dropping |v| <= dropTol.
func CSCFromDense(d *matrix.Dense, dropTol float64) *CSC {
	var trips []Triplet
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			v := d.At(i, j)
			if v > dropTol || v < -dropTol {
				trips = append(trips, Triplet{i, j, v})
			}
		}
	}
	m, err := NewCSC(d.R, d.C, trips)
	if err != nil {
		panic(err) // unreachable: indices come from d itself
	}
	return m
}

// CSCFromColumns builds an m-by-len(cols) CSC whose j-th column is the
// dense vector cols[j]; entries with |v| <= dropTol are dropped.
func CSCFromColumns(m int, cols [][]float64, dropTol float64) (*CSC, error) {
	var trips []Triplet
	for j, col := range cols {
		if len(col) != m {
			return nil, fmt.Errorf("sparse: column %d has length %d, want %d", j, len(col), m)
		}
		for i, v := range col {
			if v > dropTol || v < -dropTol {
				trips = append(trips, Triplet{i, j, v})
			}
		}
	}
	return NewCSC(m, len(cols), trips)
}

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int { return len(m.Val) }

// TMulVec returns Qᵀ·v (length C). Work O(nnz), depth O(log).
func (m *CSC) TMulVec(v []float64) []float64 {
	out := make([]float64, m.C)
	m.TMulVecInto(out, v)
	return out
}

// TMulVecInto computes out = Qᵀ·v into the caller's buffer (length C),
// the zero-allocation form used by the workspace-threaded Ψ·v paths.
func (m *CSC) TMulVecInto(out, v []float64) {
	if len(v) != m.R || len(out) != m.C {
		panic("sparse: CSC.TMulVec dimension mismatch")
	}
	avg := 1
	if m.C > 0 {
		avg = len(m.Val)/m.C + 1
	}
	grain := parallel.WorkGrain(2 * avg)
	if parallel.SerialBlock(m.C, grain) {
		segDots(out, m.ColPtr, m.Row, m.Val, v, nil, 1, 0, m.C)
		return
	}
	parallel.ForBlock(m.C, grain, func(lo, hi int) {
		segDots(out, m.ColPtr, m.Row, m.Val, v, nil, 1, lo, hi)
	})
}

// MulVecAdd accumulates dst += Q·u where u has length C, skipping the
// columns whose coefficient is exactly zero.
// Sequential over columns (columns may share rows); callers parallelize
// at a higher level.
func (m *CSC) MulVecAdd(dst []float64, u []float64) {
	if len(u) != m.C || len(dst) != m.R {
		panic("sparse: CSC.MulVecAdd dimension mismatch")
	}
	for j, uj := range u {
		if uj == 0 {
			continue
		}
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			dst[m.Row[k]] += m.Val[k] * uj
		}
	}
}

// TMulBlockInto is TMulVecInto over a block of k vectors stored
// interleaved (entry i of vector c at v[i·k+c]), each column's sums
// multiplied by scale[j] as they are stored: out[j·k+c] is column j
// dotted with vector c, summed in the same ascending entry order as
// TMulVecInto, then scaled, so every vector's result is bitwise the
// vector form's followed by the scaling. One pass reads each stored
// entry once for all k vectors.
func (m *CSC) TMulBlockInto(out, v, scale []float64, k int) {
	if k <= 0 || len(v) != m.R*k || len(out) != m.C*k || len(scale) != m.C {
		panic("sparse: CSC.TMulBlockInto dimension mismatch")
	}
	grain := parallel.WorkGrain(2 * (len(m.Val)/max(m.C, 1) + 1) * k)
	if parallel.SerialBlock(m.C, grain) {
		segDots(out, m.ColPtr, m.Row, m.Val, v, scale, k, 0, m.C)
		return
	}
	parallel.ForBlock(m.C, grain, func(lo, hi int) {
		segDots(out, m.ColPtr, m.Row, m.Val, v, scale, k, lo, hi)
	})
}

// segDots is the gather kernel of the compressed layouts (CSC columns,
// Stack rows): segment j holds entries ptr[j]..ptr[j+1] with indices idx
// and weights w, and out[j·k+c] = Σ_p w[p]·v[idx[p]·k+c] for j in
// [lo, hi) against the k interleaved vectors of v, multiplied by
// scale[j] as it is stored when scale is non-nil. Every sum is a single
// accumulator over its segment's entries in stored order, so a block's
// vectors are bitwise the one-vector sums. The vectors go eight, then
// four, at a time with their sums in registers, then one at a time.
func segDots(out []float64, ptr, idx []int, w, v, scale []float64, k, lo, hi int) {
	if k == 1 {
		segDots1(out, ptr, idx, w, v, scale, lo, hi)
		return
	}
	for j := lo; j < hi; j++ {
		o, f := out[j*k:(j+1)*k], 1.0
		if scale != nil {
			f = scale[j]
		}
		ix, wj := idx[ptr[j]:ptr[j+1]], w[ptr[j]:ptr[j+1]]
		wj = wj[:len(ix)]
		c := 0
		for ; c+8 <= k; c += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p, r := range ix {
				a, vr := wj[p], v[r*k+c:r*k+c+8]
				s0 += a * vr[0]
				s1 += a * vr[1]
				s2 += a * vr[2]
				s3 += a * vr[3]
				s4 += a * vr[4]
				s5 += a * vr[5]
				s6 += a * vr[6]
				s7 += a * vr[7]
			}
			o[c], o[c+1], o[c+2], o[c+3] = s0*f, s1*f, s2*f, s3*f
			o[c+4], o[c+5], o[c+6], o[c+7] = s4*f, s5*f, s6*f, s7*f
		}
		for ; c+4 <= k; c += 4 {
			var s0, s1, s2, s3 float64
			for p, r := range ix {
				a, vr := wj[p], v[r*k+c:r*k+c+4]
				s0 += a * vr[0]
				s1 += a * vr[1]
				s2 += a * vr[2]
				s3 += a * vr[3]
			}
			o[c], o[c+1], o[c+2], o[c+3] = s0*f, s1*f, s2*f, s3*f
		}
		for ; c < k; c++ {
			var s float64
			for p, r := range ix {
				s += wj[p] * v[r*k+c]
			}
			o[c] = s * f
		}
	}
}

// segDots1 is segDots for one vector, four segments at a time: while
// all four still have entries their accumulation chains run
// interleaved, putting four independent add chains in flight instead of
// one latency-bound chain, then each segment drains its remaining
// entries alone. Every sum still visits its entries in stored order
// with a single accumulator, so out is bitwise the one-segment loop's.
func segDots1(out []float64, cp, row []int, val, v, scale []float64, lo, hi int) {
	j := lo
	for ; j+3 < hi; j += 4 {
		k0, e0 := cp[j], cp[j+1]
		k1, e1 := cp[j+1], cp[j+2]
		k2, e2 := cp[j+2], cp[j+3]
		k3, e3 := cp[j+3], cp[j+4]
		var s0, s1, s2, s3 float64
		for k0 < e0 && k1 < e1 && k2 < e2 && k3 < e3 {
			s0 += val[k0] * v[row[k0]]
			s1 += val[k1] * v[row[k1]]
			s2 += val[k2] * v[row[k2]]
			s3 += val[k3] * v[row[k3]]
			k0++
			k1++
			k2++
			k3++
		}
		for ; k0 < e0; k0++ {
			s0 += val[k0] * v[row[k0]]
		}
		for ; k1 < e1; k1++ {
			s1 += val[k1] * v[row[k1]]
		}
		for ; k2 < e2; k2++ {
			s2 += val[k2] * v[row[k2]]
		}
		for ; k3 < e3; k3++ {
			s3 += val[k3] * v[row[k3]]
		}
		if scale != nil {
			s0, s1, s2, s3 = s0*scale[j], s1*scale[j+1], s2*scale[j+2], s3*scale[j+3]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < hi; j++ {
		var s float64
		for k := cp[j]; k < cp[j+1]; k++ {
			s += val[k] * v[row[k]]
		}
		if scale != nil {
			s *= scale[j]
		}
		out[j] = s
	}
}

// MulBlockAdd is MulVecAdd over a block of k coefficient vectors stored
// interleaved: dst[i·k+c] += (Q·u_c)[i]. Each (column, vector) pair
// with u == 0 is skipped as in the vector form, and every dst entry
// takes its additions in the same column-then-entry order, so each
// vector's result is bitwise the vector form's. Within a column, groups
// of four vectors with no zero coefficient scatter together; a single
// vector takes the vector form itself.
func (m *CSC) MulBlockAdd(dst []float64, u []float64, k int) {
	if k <= 0 || len(u) != m.C*k || len(dst) != m.R*k {
		panic("sparse: CSC.MulBlockAdd dimension mismatch")
	}
	if k == 1 {
		m.MulVecAdd(dst, u)
		return
	}
	for j := 0; j < m.C; j++ {
		uj := u[j*k : (j+1)*k]
		rows, val := m.Row[m.ColPtr[j]:m.ColPtr[j+1]], m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
		val = val[:len(rows)]
		for c := 0; c < k; {
			if c+4 <= k {
				u0, u1, u2, u3 := uj[c], uj[c+1], uj[c+2], uj[c+3]
				if u0 != 0 && u1 != 0 && u2 != 0 && u3 != 0 {
					for p, r := range rows {
						a, d := val[p], dst[r*k+c:r*k+c+4]
						d[0] += a * u0
						d[1] += a * u1
						d[2] += a * u2
						d[3] += a * u3
					}
					c += 4
					continue
				}
			}
			if uc := uj[c]; uc != 0 {
				for p, r := range rows {
					dst[r*k+c] += val[p] * uc
				}
			}
			c++
		}
	}
}

// GramDense returns the dense m-by-m matrix Q·Qᵀ. Used to materialize
// factored constraints on the dense/reference path.
func (m *CSC) GramDense() *matrix.Dense {
	out := matrix.New(m.R, m.R)
	for j := 0; j < m.C; j++ {
		for k1 := m.ColPtr[j]; k1 < m.ColPtr[j+1]; k1++ {
			r1, v1 := m.Row[k1], m.Val[k1]
			for k2 := m.ColPtr[j]; k2 < m.ColPtr[j+1]; k2++ {
				out.Data[r1*m.R+m.Row[k2]] += v1 * m.Val[k2]
			}
		}
	}
	return out
}

// GramTrace returns Tr[QQᵀ] = Σᵢⱼ Qᵢⱼ², i.e. the squared Frobenius norm
// of the factor — the constraint trace the reduction of Lemma 2.2 caps.
func (m *CSC) GramTrace() float64 {
	return parallel.SumBlocks(len(m.Val), 4096, func(lo, hi int) float64 {
		var s float64
		for k := lo; k < hi; k++ {
			s += m.Val[k] * m.Val[k]
		}
		return s
	})
}

// GramQuad returns vᵀ(QQᵀ)v = |Qᵀv|².
func (m *CSC) GramQuad(v []float64) float64 {
	qv := m.TMulVec(v)
	return matrix.VecDot(qv, qv)
}

// SketchDot returns |S·Q|_F² where S is a dense k-by-m sketch: this is
// the per-constraint estimate |Π exp(Φ/2) Qᵢ|² of Theorem 4.1.
// Work O(k·nnz(Q)), depth O(log). Below the fork grain the block tree
// is replayed with a plain loop — same decomposition, same combine
// order, no heap-escaping closure — so the per-constraint dots of a
// steady-state oracle call allocate nothing.
func (m *CSC) SketchDot(s *matrix.Dense) float64 {
	if s.C != m.R {
		panic("sparse: CSC.SketchDot dimension mismatch")
	}
	blocks := parallel.BlockCount(m.C, 4)
	if blocks == 1 {
		return sketchDotCols(m, s, 0, m.C)
	}
	if parallel.SerialBlock(m.C, parallel.WorkGrain(2*s.R*(len(m.Val)/m.C+1))) {
		var total float64
		for b := 0; b < blocks; b++ {
			total += sketchDotCols(m, s, b*m.C/blocks, (b+1)*m.C/blocks)
		}
		return total
	}
	return parallel.SumBlocks(m.C, 4, func(lo, hi int) float64 {
		return sketchDotCols(m, s, lo, hi)
	})
}

func sketchDotCols(m *CSC, s *matrix.Dense, lo, hi int) float64 {
	k := s.R
	var total float64
	for j := lo; j < hi; j++ {
		// |S·qⱼ|² for the sparse column qⱼ.
		for r := 0; r < k; r++ {
			row := s.Data[r*s.C : (r+1)*s.C]
			var dot float64
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				dot += row[m.Row[p]] * m.Val[p]
			}
			total += dot * dot
		}
	}
	return total
}

// ToDense converts to dense.
func (m *CSC) ToDense() *matrix.Dense {
	d := matrix.New(m.R, m.C)
	for j := 0; j < m.C; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Data[m.Row[k]*m.C+j] += m.Val[k]
		}
	}
	return d
}

// Scale returns a copy of m with every value multiplied by s.
func (m *CSC) Scale(s float64) *CSC {
	out := &CSC{R: m.R, C: m.C, ColPtr: append([]int(nil), m.ColPtr...), Row: append([]int(nil), m.Row...), Val: make([]float64, len(m.Val))}
	for i, v := range m.Val {
		out.Val[i] = s * v
	}
	return out
}
