package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/work"
)

// Decomposition is a full symmetric eigendecomposition A = V Λ Vᵀ.
type Decomposition struct {
	// Values holds the eigenvalues: in descending order from
	// SymEigenInto, in the basis's column order from
	// RefineSymEigenInto.
	Values []float64
	// Vectors holds the corresponding orthonormal eigenvectors as
	// columns: column j pairs with Values[j].
	Vectors *matrix.Dense
}

// SymEigen computes the full eigendecomposition of the symmetric matrix
// a. a is not modified. Analytic cost: work O(n³), depth O(n log n)
// (the QL sweep is inherently sequential across eigenvalues; the paper
// notes exact decompositions cost Ω(m^ω) work, which is why they appear
// only in reference/verification paths).
func SymEigen(a *matrix.Dense) (*Decomposition, error) {
	dec := &Decomposition{}
	if err := SymEigenInto(nil, a, dec); err != nil {
		return nil, err
	}
	return dec, nil
}

// SymEigenInto computes the eigendecomposition of a into dec, reusing
// dec's storage when the shapes match — the zero-allocation form the
// dense exponential oracle calls on its first iteration, after each Ψ
// rebuild and whenever its warm route (RefineSymEigenInto) cannot
// finish: about 0.4% of its calls in dense-solve's Maximize. ws (which
// may be nil) supplies two length-n scratch vectors and any storage dec
// is missing; no allocation happens once dec and the workspace are
// warm.
// The basis is built, rotated and sorted in place as rows of
// dec.Vectors, where every QL rotation streams two contiguous rows, and
// transposed once at the end so that columns are eigenvectors.
func SymEigenInto(ws *work.Workspace, a *matrix.Dense, dec *Decomposition) error {
	if err := checkSym(a); err != nil {
		return err
	}
	n := a.R
	if dec.Vectors == nil || dec.Vectors.R != n || dec.Vectors.C != n {
		dec.Vectors = ws.Mat(n, n)
	}
	if len(dec.Values) != n {
		dec.Values = ws.Vec(n)
	}
	dec.Vectors.CopyFrom(a)
	d, zt := dec.Values, dec.Vectors.Data
	e, w := ws.Vec(n), ws.Vec(n)
	tred2(zt, n, d, e, w)
	ws.PutVec(w)
	err := tqli(d, e, n, zt)
	ws.PutVec(e)
	if err != nil {
		return err
	}
	sortDesc(d, zt, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			zt[i*n+j], zt[j*n+i] = zt[j*n+i], zt[i*n+j]
		}
	}
	return nil
}

// SymEigenvalues computes only the eigenvalues of the symmetric matrix
// a, in descending order. a is not modified.
func SymEigenvalues(a *matrix.Dense) ([]float64, error) {
	d := make([]float64, a.R)
	if err := eigenvaluesInto(nil, a, d); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

// LambdaMaxInto is LambdaMax drawing every buffer from ws (which may be
// nil), so repeated calls on a warm workspace allocate nothing. The
// result is bitwise LambdaMax's: a scan keeps the first largest
// eigenvalue, and only the cases where the descending sort's tie order
// could pick a different bit pattern — a NaN, or a zero maximum whose
// sign depends on it — fall back to that sort.
func LambdaMaxInto(ws *work.Workspace, a *matrix.Dense) (float64, error) {
	d := ws.Vec(a.R)
	if err := eigenvaluesInto(ws, a, d); err != nil {
		ws.PutVec(d)
		return 0, err
	}
	top := d[0]
	for _, v := range d[1:] {
		if v > top {
			top = v
		}
	}
	if top == 0 || top != top {
		sort.Sort(sort.Reverse(sort.Float64Slice(d)))
		top = d[0]
	}
	ws.PutVec(d)
	return top, nil
}

// eigenvaluesInto writes the unsorted eigenvalues of the symmetric
// matrix a into d (length a.R), tridiagonalizing a copy drawn from ws.
func eigenvaluesInto(ws *work.Workspace, a *matrix.Dense, d []float64) error {
	if err := checkSym(a); err != nil {
		return err
	}
	n := a.R
	h := ws.Mat(n, n)
	h.CopyFrom(a)
	e := ws.Vec(n)
	tred2(h.Data, n, d, e, nil)
	err := tqli(d, e, n, nil)
	ws.PutVec(e)
	ws.PutMat(h)
	return err
}

// LambdaMax returns the largest eigenvalue of the symmetric matrix a.
func LambdaMax(a *matrix.Dense) (float64, error) {
	return LambdaMaxInto(nil, a)
}

// LambdaMin returns the smallest eigenvalue of the symmetric matrix a.
func LambdaMin(a *matrix.Dense) (float64, error) {
	vals, err := SymEigenvalues(a)
	if err != nil {
		return 0, err
	}
	return vals[len(vals)-1], nil
}

// IsPSD reports whether symmetric a is positive semidefinite up to a
// small relative tolerance: λ_min(a) >= -tol·max(1, |λ|_max).
func IsPSD(a *matrix.Dense, tol float64) (bool, error) {
	vals, err := SymEigenvalues(a)
	if err != nil {
		return false, err
	}
	scale := 1.0
	for _, v := range vals {
		if av := abs(v); av > scale {
			scale = av
		}
	}
	return vals[len(vals)-1] >= -tol*scale, nil
}

// Apply evaluates f on the spectrum: returns V f(Λ) Vᵀ via the blocked
// symmetric congruence kernel (upper triangle computed, then mirrored).
func (dec *Decomposition) Apply(f func(float64) float64) *matrix.Dense {
	n := len(dec.Values)
	dst := matrix.New(n, n)
	dec.ApplyInto(nil, dst, f)
	return dst
}

// ApplyInto evaluates f on the spectrum into dst (n-by-n), drawing the
// f(Λ) scratch vector from ws. dst must not alias dec.Vectors.
func (dec *Decomposition) ApplyInto(ws *work.Workspace, dst *matrix.Dense, f func(float64) float64) {
	n := len(dec.Values)
	fl := ws.Vec(n)
	for j, lam := range dec.Values {
		fl[j] = f(lam)
	}
	// No stats: Apply is part of composite decomposition pipelines whose
	// analytic cost the drivers record (see the Stats convention).
	matrix.CongruenceDiagInto(dst, dec.Vectors, fl, nil)
	ws.PutVec(fl)
}

// Reconstruct returns V Λ Vᵀ, which should reproduce the input matrix.
func (dec *Decomposition) Reconstruct() *matrix.Dense {
	return dec.Apply(func(x float64) float64 { return x })
}

// checkSym rejects non-square input, any NaN or infinite entry, and
// any pair |a[i][j] − a[j][i]| above 1e-8·max(1, max|a|), visiting
// every entry once. The running maxima move only on the rare entry
// that exceeds them, which is also where a NaN or infinity (never ≤ a
// finite maximum) is caught, so the sweep carries no serial chain.
func checkSym(a *matrix.Dense) error {
	if !a.IsSquare() {
		return fmt.Errorf("eigen: matrix is %dx%d, want square", a.R, a.C)
	}
	n, ad := a.R, a.Data
	big, asym := 0.0, 0.0
	for i := 0; i < n; i++ {
		row := ad[i*n : i*n+n]
		for j := i; j < n; j++ {
			u, v := row[j], ad[j*n+i]
			au, av := math.Abs(u), math.Abs(v)
			if !(au <= big) {
				if !(au <= math.MaxFloat64) {
					return errNonFinite
				}
				big = au
			}
			if !(av <= big) {
				if !(av <= math.MaxFloat64) {
					return errNonFinite
				}
				big = av
			}
			if d := math.Abs(u - v); d > asym {
				asym = d
			}
		}
	}
	if asym > 1e-8*max(1.0, big) {
		return errors.New("eigen: matrix is not symmetric")
	}
	return nil
}

var errNonFinite = errors.New("eigen: matrix contains NaN or Inf")

// sortDesc sorts eigenvalues descending, permuting the rows of the
// n-by-n row-major z the same way (selection sort mirrors the classical
// eigsrt).
func sortDesc(d, z []float64, n int) {
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] > p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			zi, zk := z[i*n:i*n+n], z[k*n:k*n+n]
			for r := range zi {
				zi[r], zk[r] = zk[r], zi[r]
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
