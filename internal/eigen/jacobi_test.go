package eigen

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// The circle method's rounds are disjoint and a sweep meets every pair
// exactly once, for even and odd n.
func TestRoundPairCoversEveryPairOnce(t *testing.T) {
	for n := 1; n <= 11; n++ {
		nn := n + n%2
		seen := make(map[[2]int]int)
		for r := 0; r < nn-1; r++ {
			used := make(map[int]bool)
			for i := 0; i < nn/2; i++ {
				p, q := roundPair(nn, r, i)
				if p >= q || used[p] || used[q] {
					t.Fatalf("n=%d round %d: pair (%d, %d) is not ordered or not disjoint from the round's others", n, r, p, q)
				}
				used[p], used[q] = true, true
				if q < n {
					seen[[2]int{p, q}]++
				}
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("n=%d: a sweep meets %d pairs, want %d", n, len(seen), n*(n-1)/2)
		}
		for pq, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: pair %v met %d times", n, pq, c)
			}
		}
	}
}

// refineFrom runs RefineSymEigenInto on a from the given basis, with
// eta = 1e-12·‖a‖_F: below the shortcut's rounding guard, so B is
// always formed and the sweeps run to eigensolver precision.
func refineFrom(a, basis *matrix.Dense) (*Decomposition, int, bool) {
	n := a.R
	dec := &Decomposition{Vectors: basis.Clone(), Values: make([]float64, n)}
	sweeps, _, ok := RefineSymEigenInto(a, dec, matrix.New(n, n), matrix.New(n, n), 1e-12*a.FrobNorm())
	return dec, sweeps, ok
}

// maxOrthErr returns max|VᵀV − I|.
func maxOrthErr(v *matrix.Dense) float64 {
	g := matrix.MulATB(v, v, nil)
	worst := 0.0
	for i := 0; i < g.R; i++ {
		for j := 0; j < g.C; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			worst = math.Max(worst, math.Abs(g.At(i, j)-want))
		}
	}
	return worst
}

// From the eigenbasis of a nearby matrix, the refinement converges in a
// few sweeps to the eigensolver's spectrum, with an orthonormal basis
// that diagonalizes a to within eta = 1e-12·‖a‖_F: ‖AV − VΛ‖_F, which
// is ‖offdiag VᵀAV‖_F, is at most eta up to rounding.
func TestRefineSymEigenMatchesSymEigen(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 7, 8, 10, 24} {
		a := randPSD(n, n, rng)
		near := a.Clone()
		d := randSym(n, rng)
		matrix.AXPY(near, 1e-4, d)
		prev, err := SymEigen(near)
		if err != nil {
			t.Fatal(err)
		}
		dec, sweeps, ok := refineFrom(a, prev.Vectors)
		if !ok {
			t.Fatalf("n=%d: no convergence from a nearby basis after %d sweeps", n, sweeps)
		}
		want, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]float64(nil), dec.Values...)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		scale := math.Max(1, math.Abs(want.Values[0]))
		for k := range got {
			if math.Abs(got[k]-want.Values[k]) > 1e-13*scale {
				t.Fatalf("n=%d: eigenvalue %d = %v, eigensolver %v", n, k, got[k], want.Values[k])
			}
		}
		if e := maxOrthErr(dec.Vectors); e > 1e-14 {
			t.Fatalf("n=%d: max|VᵀV − I| = %g", n, e)
		}
		av := matrix.MulAB(a, dec.Vectors, nil)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				av.Data[i*n+k] -= dec.Values[k] * dec.Vectors.At(i, k)
			}
		}
		if r, eta := av.FrobNorm(), 1e-12*a.FrobNorm(); r > eta+1e-14*a.FrobNorm() {
			t.Fatalf("n=%d: ‖AV − VΛ‖_F = %g, eta %g", n, r, eta)
		}
	}
}

// A basis that already diagonalizes a needs no sweep and is left as it
// is; on a diagonal a from the identity basis the values are a's
// diagonal bit for bit.
func TestRefineSymEigenNoSweepWhenDiagonal(t *testing.T) {
	d := []float64{0.5, 3, -1, 0, 2}
	a := matrix.Diag(d)
	dec, sweeps, ok := refineFrom(a, matrix.Identity(len(d)))
	if !ok || sweeps != 0 {
		t.Fatalf("ok = %v after %d sweeps, want ok after 0", ok, sweeps)
	}
	for k, v := range d {
		if math.Float64bits(dec.Values[k]) != math.Float64bits(v) {
			t.Fatalf("value %d = %v, want %v", k, dec.Values[k], v)
		}
	}
	if !matrix.ApproxEqual(dec.Vectors, matrix.Identity(len(d)), 0) {
		t.Fatal("the basis moved")
	}
}

// The refinement gives up, for the caller to run the full eigensolver,
// on a non-finite matrix and on a basis too far from any eigenbasis to
// converge within jacobiMaxSweeps.
func TestRefineSymEigenFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 16
	a := randPSD(n, n, rng)
	other, err := SymEigen(randSym(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, sweeps, ok := refineFrom(a, other.Vectors); ok || sweeps != jacobiMaxSweeps {
		t.Fatalf("an unrelated basis: ok = %v after %d sweeps, want failure after %d", ok, sweeps, jacobiMaxSweeps)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 1e300} {
		b := a.Clone()
		b.Set(2, 5, bad)
		b.Set(5, 2, bad)
		if _, sweeps, ok := refineFrom(b, matrix.Identity(n)); ok || sweeps != 0 {
			t.Fatalf("entry %v: ok = %v after %d sweeps, want failure before any sweep", bad, ok, sweeps)
		}
	}
}

// On an exactly diagonal a, from the identity basis and from a signed
// permutation of it, the shortcut accepts at once: no sweep, B never
// formed, the basis left as it is and the values a's diagonal, bit for
// bit, in the basis's order.
func TestRefineShortcutOnDiagonal(t *testing.T) {
	d := []float64{0.5, 3, -1, 0, 2, 7.25}
	a := matrix.Diag(d)
	n := len(d)
	perm := []int{3, 0, 5, 1, 4, 2}
	signed := matrix.New(n, n)
	for k, i := range perm {
		signed.Set(i, k, float64(1-2*(k%2)))
	}
	for _, c := range []struct {
		name  string
		basis *matrix.Dense
		perm  []int
	}{{"identity", matrix.Identity(n), []int{0, 1, 2, 3, 4, 5}}, {"signed-permutation", signed, perm}} {
		dec := &Decomposition{Vectors: c.basis.Clone(), Values: make([]float64, n)}
		b := matrix.New(n, n)
		sweeps, formed, ok := RefineSymEigenInto(a, dec, b, matrix.New(n, n), 1e-3)
		if !ok || formed || sweeps != 0 {
			t.Fatalf("%s: ok = %v, formed = %v after %d sweeps, want the shortcut", c.name, ok, formed, sweeps)
		}
		for k, i := range c.perm {
			if math.Float64bits(dec.Values[k]) != math.Float64bits(d[i]) {
				t.Fatalf("%s: value %d = %v, want %v", c.name, k, dec.Values[k], d[i])
			}
		}
		if !matrix.ApproxEqual(dec.Vectors, c.basis, 0) {
			t.Fatalf("%s: the basis moved", c.name)
		}
		for _, x := range b.Data {
			if x != 0 {
				t.Fatalf("%s: the shortcut wrote B", c.name)
			}
		}
	}
}

// At ‖a‖_F ≈ 1e8 the shortcut's ‖a‖_F² − Σₖ bₖₖ² is mostly rounding: a
// = Q(D + E)Qᵀ with ‖E‖_F = 1e-2 off the diagonal, ten times eta, while
// the difference's rounding error is of order one. The shortcut must
// not accept, though in some of the cases the difference alone is
// below eta² (the test requires one such case); the call forms B and
// either sweeps to eta or falls back, and a success still meets the
// contract ‖Q̃·diag(values)·Q̃ᵀ − a‖_F ≤ eta, up to the reconstruction's
// own rounding.
func TestRefineShortcutRejectsRounding(t *testing.T) {
	const n, eta = 8, 1e-3
	rng := rand.New(rand.NewPCG(11, 12))
	unguardedBelow := 0
	for c := 0; c < 16; c++ {
		q, err := SymEigen(randSym(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		de := matrix.New(n, n)
		for i := 0; i < n; i++ {
			de.Set(i, i, 1e8/math.Sqrt(n)*(0.5+rng.Float64()))
		}
		off := randSym(n, rng)
		for i := 0; i < n; i++ {
			off.Set(i, i, 0)
		}
		matrix.AXPY(de, 1e-2/off.FrobNorm(), off)
		a := matrix.MulABT(matrix.MulAB(q.Vectors, de, nil), q.Vectors, nil)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a.Set(j, i, a.At(i, j))
			}
		}

		tmp := matrix.MulAB(a, q.Vectors, nil)
		fro, dg := diagOfCongruence(make([]float64, n), q.Vectors.Data, tmp.Data, a.Data, n)
		if fro-dg <= eta*eta {
			unguardedBelow++
		}

		dec := &Decomposition{Vectors: q.Vectors.Clone(), Values: make([]float64, n)}
		sweeps, formed, ok := RefineSymEigenInto(a, dec, matrix.New(n, n), matrix.New(n, n), eta)
		if !formed {
			t.Fatalf("case %d: the shortcut accepted ‖a‖_F² − Σb² = %g against eta² = %g", c, fro-dg, eta*eta)
		}
		if !ok {
			continue
		}
		near := matrix.CongruenceDiag(dec.Vectors, dec.Values, nil)
		diff := matrix.New(n, n)
		matrix.Sub(diff, near, a)
		if dist := diff.FrobNorm(); dist > eta+1e-14*a.FrobNorm() {
			t.Fatalf("case %d, %d sweeps: ‖Ψ̃ − a‖_F = %g, eta %g", c, sweeps, dist, eta)
		}
	}
	if unguardedBelow == 0 {
		t.Fatal("no case put the unguarded difference below eta²; the test does not reach the guard")
	}
}

// A refinement allocates nothing.
func TestRefineSymEigenZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const n = 10
	a := randPSD(n, n, rng)
	prev, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	b, tmp := matrix.New(n, n), matrix.New(n, n)
	dec := &Decomposition{Vectors: prev.Vectors, Values: make([]float64, n)}
	allocs := testing.AllocsPerRun(20, func() {
		a.Data[1] += 1e-6
		a.Data[n] = a.Data[1]
		if _, _, ok := RefineSymEigenInto(a, dec, b, tmp, 1e-12*a.FrobNorm()); !ok {
			t.Fatal("no convergence")
		}
	})
	if allocs != 0 {
		t.Fatalf("RefineSymEigenInto allocates %.1f per call, want 0", allocs)
	}
}
