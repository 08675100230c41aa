// Package sparse implements the compressed sparse row/column matrices
// used by the factored fast path of the solver. Theorem 4.1 of the
// paper charges work proportional to q, the total number of nonzeros in
// the factors Qᵢ of Aᵢ = QᵢQᵢᵀ; these types make that cost model real:
// every product below costs O(nnz) work and O(log) depth.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Triplet is one explicit (row, col, value) entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	R, C   int
	RowPtr []int // length R+1
	Col    []int
	Val    []float64
}

// NewCSR builds a CSR matrix from triplets. Duplicate entries are
// summed. Out-of-range indices cause an error.
func NewCSR(r, c int, trips []Triplet) (*CSR, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("sparse: NewCSR(%d, %d): dimensions must be positive", r, c)
	}
	sorted := make([]Triplet, len(trips))
	copy(sorted, trips)
	for _, t := range sorted {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			return nil, fmt.Errorf("sparse: entry (%d, %d) out of range for %dx%d", t.Row, t.Col, r, c)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{R: r, C: c, RowPtr: make([]int, r+1)}
	for k := 0; k < len(sorted); {
		t := sorted[k]
		v := t.Val
		k++
		for k < len(sorted) && sorted[k].Row == t.Row && sorted[k].Col == t.Col {
			v += sorted[k].Val
			k++
		}
		if v == 0 {
			continue
		}
		m.Col = append(m.Col, t.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[t.Row+1]++
	}
	for i := 0; i < r; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVecTo computes dst = m·v in parallel over rows.
func (m *CSR) MulVecTo(dst, v []float64) {
	if len(v) != m.C || len(dst) != m.R {
		panic("sparse: CSR.MulVecTo dimension mismatch")
	}
	avg := 1
	if m.R > 0 {
		avg = len(m.Val)/m.R + 1
	}
	parallel.ForBlock(m.R, parallel.WorkGrain(2*avg), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				s += m.Val[k] * v[m.Col[k]]
			}
			dst[i] = s
		}
	})
}

// MulVec returns m·v.
func (m *CSR) MulVec(v []float64) []float64 {
	dst := make([]float64, m.R)
	m.MulVecTo(dst, v)
	return dst
}

// ToDense converts to a dense matrix.
func (m *CSR) ToDense() *matrix.Dense {
	d := matrix.New(m.R, m.C)
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Data[i*m.C+m.Col[k]] += m.Val[k]
		}
	}
	return d
}

// FromDense converts a dense matrix to CSR, dropping entries with
// |v| <= dropTol.
func FromDense(d *matrix.Dense, dropTol float64) *CSR {
	m := &CSR{R: d.R, C: d.C, RowPtr: make([]int, d.R+1)}
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			v := d.At(i, j)
			if v > dropTol || v < -dropTol {
				m.Col = append(m.Col, j)
				m.Val = append(m.Val, v)
				m.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < d.R; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
