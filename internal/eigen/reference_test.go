package eigen

// A verbatim copy of the dense eigensolver as it stood before its loops
// were restructured for memory order (work/depth accounting dropped):
// Householder tridiagonalization with the column-wise back-
// accumulation, QL rotating columns through math.Hypot, the
// column-swapping sort and the three-pass symmetry check. The
// reference tests hold the production solver to these results bit for
// bit; only loop structure and layout may differ between the two.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/matrix"
	"repro/internal/work"
)

// refFamilies builds the reference-test inputs of size n: dense random,
// Ψ-like PSD sums, diagonal (tred2's scale == 0 branches),
// block-diagonal, repeated eigenvalues, zero, rank-1, and random
// symmetric matrices at extreme scales.
func refFamilies(n int, rng *rand.Rand) map[string]*matrix.Dense {
	fams := map[string]*matrix.Dense{
		"random": randSym(n, rng),
		"zero":   matrix.New(n, n),
	}
	psi := matrix.New(n, n)
	for t := 0; t < 3; t++ {
		matrix.AXPY(psi, rng.Float64()*4, randPSD(n, 1+rng.IntN(3), rng))
	}
	fams["psi"] = psi
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	fams["diagonal"] = matrix.Diag(diag)
	blk := matrix.New(n, n)
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.IntN(4))
		for i := lo; i < hi; i++ {
			for j := i; j < hi; j++ {
				v := rng.NormFloat64()
				blk.Set(i, j, v)
				blk.Set(j, i, v)
			}
		}
		lo = hi
	}
	fams["block"] = blk
	// H·D·H with a Householder reflection H and a diagonal D whose
	// entries repeat in runs.
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Normalize(v)
	rep := make([]float64, n)
	for i := range rep {
		rep[i] = float64(i / 3)
	}
	h := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hij := -2 * v[i] * v[j]
			if i == j {
				hij++
			}
			h.Set(i, j, hij)
		}
	}
	fams["repeated"] = matrix.CongruenceDiag(h, rep, nil)
	r1 := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r1.Set(i, j, v[i]*v[j])
		}
	}
	fams["rank1"] = r1
	for _, e := range []int{-150, -50, 50, 150} {
		m := randSym(n, rng)
		matrix.Scale(m, math.Pow(10, float64(e)), m)
		fams[fmt.Sprintf("scale1e%d", e)] = m
	}
	return fams
}

// requireSameEigen checks that every dense eigensolver entry point
// returns the reference's bits (or the same error) on a.
func requireSameEigen(t *testing.T, name string, a *matrix.Dense, ws *work.Workspace) {
	t.Helper()
	var want Decomposition
	werr := refSymEigenInto(nil, a, &want)
	got := Decomposition{Vectors: matrix.New(a.R, a.C), Values: make([]float64, a.R)}
	for i := range got.Vectors.Data {
		got.Vectors.Data[i] = math.NaN() // a dirty reused decomposition
	}
	gerr := SymEigenInto(ws, a, &got)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: SymEigenInto error %v, reference %v", name, gerr, werr)
	}
	if werr == nil {
		requireBits(t, name+" values", got.Values, want.Values)
		requireBits(t, name+" vectors", got.Vectors.Data, want.Vectors.Data)
	}
	wv, werr := refSymEigenvalues(a)
	gv, gerr := SymEigenvalues(a)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: SymEigenvalues error %v, reference %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	requireBits(t, name+" eigenvalues", gv, wv)
	lam, err := LambdaMaxInto(ws, a)
	if err != nil {
		t.Fatalf("%s: LambdaMaxInto: %v", name, err)
	}
	requireBits(t, name+" LambdaMaxInto", []float64{lam}, wv[:1])
}

func requireBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSymEigenMatchesReference holds the row-oriented solver to the
// column-oriented reference copy bit for bit, across sizes 1–40 and
// every input family, with one warm workspace shared by all calls.
func TestSymEigenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	ws := work.New()
	for n := 1; n <= 40; n++ {
		fams := refFamilies(n, rng)
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			requireSameEigen(t, fmt.Sprintf("n=%d %s", n, name), fams[name], ws)
		}
	}
}

// TestCheckSymMatchesReference: the one-pass symmetry check takes the
// reference's accept/reject decision on asymmetries either side of the
// tolerance, non-finite entries and non-square input.
func TestCheckSymMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2))
	var cases []*matrix.Dense
	for _, n := range []int{1, 2, 5, 9} {
		for _, amp := range []float64{1e-3, 1, 1e6} {
			for _, off := range []float64{0.5e-8, 0.99e-8, 1.01e-8, 2e-8} {
				a := randSym(n, rng)
				matrix.Scale(a, amp, a)
				i, j := rng.IntN(n), rng.IntN(n)
				a.Set(i, j, a.At(i, j)+off*max(1, a.MaxAbs()))
				cases = append(cases, a)
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				a := randSym(n, rng)
				a.Data[rng.IntN(n*n)] = bad
				cases = append(cases, a)
			}
		}
	}
	cases = append(cases, matrix.New(2, 3), matrix.FromRows([][]float64{{1, math.MaxFloat64}, {-math.MaxFloat64, 1}}))
	for k, a := range cases {
		werr, gerr := refCheckSym(a), checkSym(a)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("case %d: checkSym = %v, reference %v", k, gerr, werr)
		}
	}
}

// FuzzSymEigenMatchesReference extends the reference comparison to
// fuzzer-chosen sizes, families, seeds and scales.
func FuzzSymEigenMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint64(1), int16(0))
	f.Add(uint8(10), uint8(1), uint64(2), int16(3))
	f.Add(uint8(24), uint8(2), uint64(3), int16(-7))
	f.Add(uint8(1), uint8(3), uint64(4), int16(150))
	f.Add(uint8(33), uint8(4), uint64(5), int16(-150))
	f.Add(uint8(5), uint8(5), uint64(6), int16(0))
	f.Add(uint8(17), uint8(6), uint64(7), int16(299))
	f.Fuzz(func(t *testing.T, n8, fam uint8, seed uint64, exp int16) {
		n := 1 + int(n8)%40
		rng := rand.New(rand.NewPCG(seed, 0xf22))
		fams := refFamilies(n, rng)
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		a := fams[names[int(fam)%len(names)]]
		matrix.Scale(a, math.Pow(2, float64(exp%320)), a)
		requireSameEigen(t, names[int(fam)%len(names)], a, nil)
	})
}

// TestQLHypotMatchesMath: the QL loop's inlined hypot, with its
// fallback, is bitwise math.Hypot on random, subnormal, huge, zero,
// infinite and NaN operands.
func TestQLHypotMatchesMath(t *testing.T) {
	hyp := func(p, q float64) float64 {
		if r, ok := qlHypot(p, q); ok {
			return r
		}
		return math.Hypot(p, q)
	}
	special := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.8p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300, 0.5, 3}
	check := func(p, q float64) {
		got, want := hyp(p, q), math.Hypot(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("qlHypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, p := range special {
		for _, q := range special {
			check(p, q)
		}
	}
	rng := rand.New(rand.NewPCG(19, 3))
	for k := 0; k < 200000; k++ {
		p := rng.NormFloat64() * math.Pow(2, float64(rng.IntN(200)-100))
		q := rng.NormFloat64() * math.Pow(2, float64(rng.IntN(200)-100))
		if k%4 == 0 {
			q = 1
		}
		if k%7 == 0 {
			p = math.Float64frombits(rng.Uint64())
		}
		check(p, q)
	}
}

func refSymEigenInto(ws *work.Workspace, a *matrix.Dense, dec *Decomposition) error {
	if err := refCheckSym(a); err != nil {
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
	d := dec.Values
	e := ws.Vec(n)
	refTred2(dec.Vectors.Data, n, d, e, true)
	err := refTqli(d, e, n, dec.Vectors.Data)
	ws.PutVec(e)
	if err != nil {
		return err
	}
	refSortDesc(d, dec.Vectors)
	return nil
}

func refSymEigenvalues(a *matrix.Dense) ([]float64, error) {
	if err := refCheckSym(a); err != nil {
		return nil, err
	}
	n := a.R
	work := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(work.Data, n, d, e, false)
	if err := refTqli(d, e, n, nil); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

func refCheckSym(a *matrix.Dense) error {
	if !a.IsSquare() {
		return fmt.Errorf("eigen: matrix is %dx%d, want square", a.R, a.C)
	}
	if a.HasNaN() {
		return errors.New("eigen: matrix contains NaN or Inf")
	}
	tol := 1e-8 * max(1.0, a.MaxAbs())
	if !a.IsSymmetric(tol) {
		return errors.New("eigen: matrix is not symmetric")
	}
	return nil
}

func refSortDesc(d []float64, z *matrix.Dense) {
	n := len(d)
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
			for r := 0; r < n; r++ {
				z.Data[r*n+i], z.Data[r*n+k] = z.Data[r*n+k], z.Data[r*n+i]
			}
		}
	}
}

func refTred2(a []float64, n int, d, e []float64, accumulate bool) {
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i*n+k])
			}
			if scale == 0 {
				e[i] = a[i*n+l]
			} else {
				for k := 0; k <= l; k++ {
					a[i*n+k] /= scale
					h += a[i*n+k] * a[i*n+k]
				}
				f := a[i*n+l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					if accumulate {
						a[j*n+i] = a[i*n+j] / h
					}
					g := 0.0
					for k := 0; k <= j; k++ {
						g += a[j*n+k] * a[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * a[i*n+k]
					}
					e[j] = g / h
					f += e[j] * a[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f := a[i*n+j]
					g := e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j*n+k] -= f*e[k] + g*a[i*n+k]
					}
				}
			}
		} else {
			e[i] = a[i*n+l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	if !accumulate {
		for i := 0; i < n; i++ {
			d[i] = a[i*n+i]
		}
		return
	}
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += a[i*n+k] * a[k*n+j]
				}
				for k := 0; k <= l; k++ {
					a[k*n+j] -= g * a[k*n+i]
				}
			}
		}
		d[i] = a[i*n+i]
		a[i*n+i] = 1
		for j := 0; j <= l; j++ {
			a[j*n+i] = 0
			a[i*n+j] = 0
		}
	}
}

func refTqli(d, e []float64, n int, z []float64) error {
	if n == 1 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const maxIter = 50
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return ErrNoConvergence
			}
			iter++
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < n; k++ {
						f := z[k*n+i+1]
						z[k*n+i+1] = s*z[k*n+i] + c*f
						z[k*n+i] = c*z[k*n+i] - s*f
					}
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
