// Package matrix implements the dense linear algebra substrate for the
// positive-SDP solver: row-major dense matrices, vectors, and the
// parallel kernels (multiply, add, pointwise dot, trace) that
// Algorithm 3.1 of Peng–Tangwongsan–Zhang builds on.
//
// All matrices are real float64. Symmetric positive semidefinite
// matrices are represented as ordinary Dense values; symmetry is a
// caller-maintained invariant checked by IsSymmetric where it matters.
package matrix

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/parallel"
)

// Dense is a row-major dense matrix.
type Dense struct {
	R, C int
	// Data holds the entries in row-major order: entry (i, j) is
	// Data[i*C+j]. len(Data) == R*C.
	Data []float64
}

// New returns a zero r-by-c matrix. It panics if r or c is not positive.
func New(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: New(%d, %d): dimensions must be positive", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns the square diagonal matrix with the given diagonal.
func Diag(d []float64) *Dense {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		panic("matrix: FromRows: no rows")
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: FromRows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// OuterProduct returns v vᵀ scaled by s: the rank-one matrix s·vvᵀ.
func OuterProduct(s float64, v []float64) *Dense {
	n := len(v)
	m := New(n, n)
	parallel.ForBlock(n, parallel.WorkGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			si := s * v[i]
			row := m.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] = si * v[j]
			}
		}
	})
	return m
}

// At returns entry (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns entry (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		out[i] = m.Data[i*m.C+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := &Dense{R: m.R, C: m.C, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.R != src.R || m.C != src.C {
		panic(dimErr("CopyFrom", m, src))
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.C, m.R)
	parallel.ForBlock(m.R, parallel.WorkGrain(m.C), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.C : (i+1)*m.C]
			for j, v := range row {
				out.Data[j*m.R+i] = v
			}
		}
	})
	return out
}

// IsSquare reports whether the matrix is square.
func (m *Dense) IsSquare() bool { return m.R == m.C }

// IsSymmetric reports whether |m[i][j] − m[j][i]| <= tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.R; i++ {
		for j := i + 1; j < m.C; j++ {
			if math.Abs(m.Data[i*m.C+j]-m.Data[j*m.C+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m + mᵀ)/2 in place. m must be square.
func (m *Dense) Symmetrize() {
	if !m.IsSquare() {
		panic("matrix: Symmetrize of non-square matrix")
	}
	n := m.R
	parallel.ForBlock(n, parallel.WorkGrain(n/2+1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
				m.Data[i*n+j] = v
				m.Data[j*n+i] = v
			}
		}
	})
}

// Trace returns the sum of diagonal entries. m must be square.
func (m *Dense) Trace() float64 {
	if !m.IsSquare() {
		panic("matrix: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.R; i++ {
		t += m.Data[i*m.C+i]
	}
	return t
}

// FrobNorm returns the Frobenius norm sqrt(Σ m[i][j]²).
func (m *Dense) FrobNorm() float64 {
	if parallel.OneBlock(len(m.Data), 0) {
		var s float64
		for _, v := range m.Data {
			s += v * v
		}
		return math.Sqrt(s)
	}
	s := parallel.SumFloat(len(m.Data), func(i int) float64 { return m.Data[i] * m.Data[i] })
	return math.Sqrt(s)
}

// MaxAbs returns max |m[i][j]|.
func (m *Dense) MaxAbs() float64 {
	if parallel.OneBlock(len(m.Data), 0) {
		mx := math.Abs(m.Data[0])
		for _, v := range m.Data[1:] {
			if av := math.Abs(v); av > mx {
				mx = av
			}
		}
		return mx
	}
	return parallel.MaxFloat(len(m.Data), func(i int) float64 { return math.Abs(m.Data[i]) })
}

// HasNaN reports whether any entry is NaN or infinite.
func (m *Dense) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// ApproxEqual reports whether a and b have the same shape and all
// entries differ by at most tol.
func ApproxEqual(a, b *Dense, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.R, m.C)
	maxR, maxC := m.R, m.C
	const lim = 8
	if maxR > lim {
		maxR = lim
	}
	if maxC > lim {
		maxC = lim
	}
	for i := 0; i < maxR; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < maxC; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.4g", m.At(i, j))
		}
		if maxC < m.C {
			sb.WriteString(" ...")
		}
	}
	if maxR < m.R {
		sb.WriteString("; ...")
	}
	sb.WriteString("]")
	return sb.String()
}

func dimErr(op string, a, b *Dense) string {
	return fmt.Sprintf("matrix: %s dimension mismatch: %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C)
}
