package sparse

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Symmetric-matrix kernels. A general sparse symmetric constraint Aᵢ is
// stored as a full (not triangular) CSC matrix with R == C; symmetry is
// what makes the kernels below both O(nnz) and race-free in parallel:
// row r of A equals column r, so every row-wise result can be computed
// from the column arrays without transposing, each output entry owned
// by exactly one block of the fixed reduction tree. All kernels follow
// the repository's determinism discipline (fixed block decompositions,
// sequential accumulation within a block) and its allocation discipline
// (a plain-loop branch before any fork closure is built).

// MaxAbs returns max |Aᵢⱼ| over stored entries (0 for an empty matrix).
func (m *CSC) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// HasNonFinite reports whether any stored entry is NaN or ±Inf.
func (m *CSC) HasNonFinite() bool {
	for _, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// DiagSum returns Σᵢ Aᵢᵢ, the trace of a square sparse matrix.
func (m *CSC) DiagSum() float64 {
	if m.R != m.C {
		panic("sparse: CSC.DiagSum of non-square matrix")
	}
	var tr float64
	for j := 0; j < m.C; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			if m.Row[k] == j {
				tr += m.Val[k]
			}
		}
	}
	return tr
}

// IsSymmetric reports whether the square matrix satisfies
// |Aᵢⱼ − Aⱼᵢ| ≤ tol for every stored entry (entries absent on one side
// count as zero). Row indices within a column are sorted (NewCSC
// canonicalizes), so each mirror lookup is a binary search: O(nnz·log).
func (m *CSC) IsSymmetric(tol float64) bool {
	if m.R != m.C {
		return false
	}
	for j := 0; j < m.C; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.Row[k]
			if i == j {
				continue
			}
			if math.Abs(m.Val[k]-m.at(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// at returns the stored value at (row, col), 0 when absent, by binary
// search over the column's sorted row indices.
func (m *CSC) at(row, col int) float64 {
	lo, hi := m.ColPtr[col], m.ColPtr[col+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch r := m.Row[mid]; {
		case r == row:
			return m.Val[mid]
		case r < row:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// SymMulVecInto computes out = A·v for a symmetric square matrix. By
// symmetry A·v = Aᵀ·v, which streams over columns: out[j] is a single
// column dot product, so blocks of the fixed reduction tree never write
// to shared entries. Work O(nnz), depth O(log).
func (m *CSC) SymMulVecInto(out, v []float64) {
	if m.R != m.C {
		panic("sparse: CSC.SymMulVecInto of non-square matrix")
	}
	m.TMulVecInto(out, v)
}

// Quad returns the quadratic form vᵀAv for a square matrix in one
// O(nnz) pass, accumulating column contributions in the fixed block
// order: Σⱼ (Σₖ Aₖⱼ·vₖ)·vⱼ.
func (m *CSC) Quad(v []float64) float64 {
	if m.R != m.C || len(v) != m.R {
		panic("sparse: CSC.Quad dimension mismatch")
	}
	grain := quadGrain(m)
	n := m.C
	blocks := parallel.BlockCount(n, grain)
	if blocks == 1 {
		return quadCols(m, v, 0, n)
	}
	if parallel.Workers() == 1 {
		// Replay the block tree with a plain loop: same decomposition,
		// same combine order, no heap-escaping closure.
		var s float64
		for b := 0; b < blocks; b++ {
			s += quadCols(m, v, b*n/blocks, (b+1)*n/blocks)
		}
		return s
	}
	return parallel.SumBlocks(n, grain, func(lo, hi int) float64 {
		return quadCols(m, v, lo, hi)
	})
}

func quadCols(m *CSC, v []float64, lo, hi int) float64 {
	var total float64
	for j := lo; j < hi; j++ {
		var dot float64
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			dot += m.Val[k] * v[m.Row[k]]
		}
		total += dot * v[j]
	}
	return total
}

// quadGrain picks the column grain so each block holds ~4096 stored
// entries, matching the other sparse reductions.
func quadGrain(m *CSC) int {
	avg := 1
	if m.C > 0 {
		avg = len(m.Val)/m.C + 1
	}
	return 4096/avg + 1
}

// QuadRows returns Σ_r s_rᵀ·A·s_r over the rows of the dense matrix s
// (each row an m-vector): the batched quadratic form Tr[SASᵀ] = A•SᵀS
// at the heart of the sparse exp(Ψ)•Aᵢ oracles — the general-sparse
// analog of SketchDot. Work O(k·nnz), depth O(log).
func (m *CSC) QuadRows(s *matrix.Dense) float64 {
	if m.R != m.C || s.C != m.R {
		panic("sparse: CSC.QuadRows dimension mismatch")
	}
	grain := quadGrain(m)
	n := m.C
	blocks := parallel.BlockCount(n, grain)
	if blocks == 1 {
		return quadRowsCols(m, s, 0, n)
	}
	if parallel.Workers() == 1 {
		var total float64
		for b := 0; b < blocks; b++ {
			total += quadRowsCols(m, s, b*n/blocks, (b+1)*n/blocks)
		}
		return total
	}
	return parallel.SumBlocks(n, grain, func(lo, hi int) float64 {
		return quadRowsCols(m, s, lo, hi)
	})
}

func quadRowsCols(m *CSC, s *matrix.Dense, lo, hi int) float64 {
	k := s.R
	var total float64
	for j := lo; j < hi; j++ {
		for r := 0; r < k; r++ {
			row := s.Data[r*s.C : (r+1)*s.C]
			var dot float64
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				dot += m.Val[p] * row[m.Row[p]]
			}
			total += dot * row[j]
		}
	}
	return total
}

// FormGrain is the per-matrix loop grain of a sweep that takes rows
// quadratic forms against each of n matrices holding nnz stored
// entries in all (2·rows·nnz/n flops per matrix): the sweep forks only
// once a block of matrices holds enough work to pay for its goroutine.
func FormGrain(n, nnz, rows int) int {
	return parallel.WorkGrain(2 * rows * (nnz/max(n, 1) + 1))
}

// QuadForms computes out[i] = scale·vᵀAᵢv for every constraint in one
// parallel sweep over i, forking only at FormGrain. Each constraint's accumulation is sequential
// in canonical entry order, so the batch is deterministic at any
// GOMAXPROCS. Work O(Σ nnz(Aᵢ)), depth O(log).
func QuadForms(out []float64, as []*CSC, scale float64, v []float64) {
	if len(out) != len(as) {
		panic("sparse: QuadForms length mismatch")
	}
	nnz := 0
	for _, a := range as {
		nnz += a.NNZ()
	}
	grain := FormGrain(len(as), nnz, 1)
	if parallel.SerialBlock(len(as), grain) {
		for i, a := range as {
			out[i] = scale * a.Quad(v)
		}
		return
	}
	parallel.ForBlock(len(as), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = scale * as[i].Quad(v)
		}
	})
}

// Stack is the flattened/stacked form of n symmetric m-by-m sparse
// matrices: every stored entry of every Aᵢ regrouped by output row, so
// the multi-matrix matvec Ψ(x)·v = Σᵢ xᵢ·Aᵢ·v is a single O(q) pass
// (q = Σ nnz(Aᵢ)) with each output entry owned by one row — no write
// races, no transposes, fixed accumulation order. Within a row, entries
// appear in constraint order then column order, both canonical, so the
// stacked sum is deterministic at any GOMAXPROCS.
type Stack struct {
	// M is the matrix dimension, N the number of stacked matrices.
	M, N int
	// RowPtr[r]..RowPtr[r+1] delimit row r's entries (length M+1).
	RowPtr []int
	// Col, Con, Val hold each entry's column index, source-constraint
	// index, and value.
	Col []int
	Con []int
	Val []float64
}

// NewStack flattens the symmetric square matrices as (all m-by-m, at
// least one). Symmetry is assumed, not checked: row r of Aᵢ is read
// from column r of its CSC form.
func NewStack(as []*CSC) (*Stack, error) {
	if len(as) == 0 {
		return nil, fmt.Errorf("sparse: NewStack of empty set")
	}
	m := as[0].R
	total := 0
	for i, a := range as {
		if a.R != m || a.C != m {
			return nil, fmt.Errorf("sparse: NewStack: matrix %d is %dx%d, want %dx%d", i, a.R, a.C, m, m)
		}
		total += a.NNZ()
	}
	st := &Stack{
		M:      m,
		N:      len(as),
		RowPtr: make([]int, m+1),
		Col:    make([]int, 0, total),
		Con:    make([]int, 0, total),
		Val:    make([]float64, 0, total),
	}
	for r := 0; r < m; r++ {
		for i, a := range as {
			for k := a.ColPtr[r]; k < a.ColPtr[r+1]; k++ {
				st.Col = append(st.Col, a.Row[k])
				st.Con = append(st.Con, i)
				st.Val = append(st.Val, a.Val[k])
			}
		}
		st.RowPtr[r+1] = len(st.Val)
	}
	return st, nil
}

// NNZ returns the total number of stacked entries q.
func (st *Stack) NNZ() int { return len(st.Val) }

// AccumulateScaled computes out = Σᵢ x[i]·Aᵢ·v in one pass over the
// stacked entries: out[r] = Σ_p Val[p]·x[Con[p]]·v[Col[p]] with p
// ranging over row r. Rows are partitioned over a fixed block tree and
// accumulated sequentially within each row, so the result is bitwise
// identical at any GOMAXPROCS. Work O(q), depth O(log).
func (st *Stack) AccumulateScaled(out, x, v []float64) {
	if len(out) != st.M || len(v) != st.M || len(x) != st.N {
		panic("sparse: Stack.AccumulateScaled dimension mismatch")
	}
	avg := 1
	if st.M > 0 {
		avg = len(st.Val)/st.M + 1
	}
	grain := parallel.WorkGrain(2 * avg)
	if parallel.SerialBlock(st.M, grain) {
		st.accumRows(out, x, v, 0, st.M)
		return
	}
	parallel.ForBlock(st.M, grain, func(lo, hi int) {
		st.accumRows(out, x, v, lo, hi)
	})
}

// ApplyCoefBlock is AccumulateScaled over a block of k vectors stored
// interleaved (entry i of vector c at v[i·k+c], likewise out), with the
// entry weights loaded beforehand: coef[p] = Val[p]·x[Con[p]], formed
// once per operator instead of once per apply and vector group. Every
// (row, vector) sum visits its entries in the same order as
// AccumulateScaled with the same products, so each vector's result is
// bitwise the vector form's.
func (st *Stack) ApplyCoefBlock(out, coef, v []float64, k int) {
	if k <= 0 || len(out) != st.M*k || len(v) != st.M*k || len(coef) != len(st.Val) {
		panic("sparse: Stack.ApplyCoefBlock dimension mismatch")
	}
	grain := parallel.WorkGrain(2 * (len(st.Val)/max(st.M, 1) + 1) * k)
	if parallel.SerialBlock(st.M, grain) {
		segDots(out, st.RowPtr, st.Col, coef, v, nil, k, 0, st.M)
		return
	}
	parallel.ForBlock(st.M, grain, func(lo, hi int) {
		segDots(out, st.RowPtr, st.Col, coef, v, nil, k, lo, hi)
	})
}

func (st *Stack) accumRows(out, x, v []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		var s float64
		for p := st.RowPtr[r]; p < st.RowPtr[r+1]; p++ {
			s += st.Val[p] * x[st.Con[p]] * v[st.Col[p]]
		}
		out[r] = s
	}
}
