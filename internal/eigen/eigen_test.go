package eigen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/work"
)

func randSym(n int, rng *rand.Rand) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// randPSD builds G Gᵀ with G n-by-r, a PSD matrix of rank <= r.
func randPSD(n, r int, rng *rand.Rand) *matrix.Dense {
	g := matrix.New(n, r)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return matrix.MulABT(g, g, nil)
}

func TestSymEigenDiagonal(t *testing.T) {
	a := matrix.Diag([]float64{3, 1, 2})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if math.Abs(dec.Values[i]-v) > 1e-12 {
			t.Fatalf("values = %v want %v", dec.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := matrix.FromRows([][]float64{{2, 1}, {1, 2}})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]-3) > 1e-12 || math.Abs(dec.Values[1]-1) > 1e-12 {
		t.Fatalf("values = %v want [3 1]", dec.Values)
	}
	// Eigenvector for 3 is (1,1)/√2 up to sign.
	v0 := dec.Vectors.Col(0)
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-12 || math.Abs(v0[0]-v0[1]) > 1e-12 {
		t.Fatalf("top eigenvector = %v", v0)
	}
}

func TestSymEigen1x1(t *testing.T) {
	a := matrix.FromRows([][]float64{{7}})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Values[0] != 7 || math.Abs(math.Abs(dec.Vectors.At(0, 0))-1) > 1e-15 {
		t.Fatalf("1x1 decomposition wrong: %v %v", dec.Values, dec.Vectors)
	}
}

func TestSymEigenReconstruct(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	for _, n := range []int{2, 3, 5, 8, 16, 33} {
		a := randSym(n, rng)
		dec, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := dec.Reconstruct()
		if !matrix.ApproxEqual(rec, a, 1e-9*float64(n)) {
			t.Fatalf("n=%d: reconstruction error %g", n, errNorm(rec, a))
		}
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 21))
	a := randSym(12, rng)
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv := matrix.MulATB(dec.Vectors, dec.Vectors, nil)
	if !matrix.ApproxEqual(vtv, matrix.Identity(12), 1e-10) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestSymEigenResidualPerPair(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 22))
	a := randSym(9, rng)
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 9; j++ {
		v := dec.Vectors.Col(j)
		av := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-dec.Values[j]*v[i]) > 1e-9 {
				t.Fatalf("pair %d: |Av - λv| too large", j)
			}
		}
	}
}

func TestValuesOnlyMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 23))
	for _, n := range []int{1, 2, 3, 7, 20} {
		a := randSym(n, rng)
		dec, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := SymEigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Abs(vals[i]-dec.Values[i]) > 1e-9 {
				t.Fatalf("n=%d: values-only %v != full %v", n, vals, dec.Values)
			}
		}
	}
}

func TestTraceEqualsSumOfEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 24))
	a := randSym(15, rng)
	vals, err := SymEigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-a.Trace()) > 1e-9 {
		t.Fatalf("Σλ = %v, Tr = %v", sum, a.Trace())
	}
}

func TestLambdaMaxMinPSD(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 25))
	a := randPSD(10, 4, rng) // rank <= 4, so λ_min = 0
	lmax, err := LambdaMax(a)
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := LambdaMin(a)
	if err != nil {
		t.Fatal(err)
	}
	if lmax <= 0 {
		t.Fatalf("λmax = %v should be positive", lmax)
	}
	if math.Abs(lmin) > 1e-9*lmax {
		t.Fatalf("λmin = %v should be ~0 for rank-deficient PSD", lmin)
	}
	ok, err := IsPSD(a, 1e-9)
	if err != nil || !ok {
		t.Fatalf("IsPSD = %v, %v", ok, err)
	}
	neg := a.Clone()
	matrix.AddScaledIdentity(neg, -0.1*lmax)
	ok, err = IsPSD(neg, 1e-9)
	if err != nil || ok {
		t.Fatalf("shifted matrix should not be PSD")
	}
}

func TestApplyExpConsistency(t *testing.T) {
	// Apply(exp) on a diagonal matrix is exp of the diagonal.
	a := matrix.Diag([]float64{0, 1, -1})
	dec, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	e := dec.Apply(math.Exp)
	want := matrix.Diag([]float64{1, math.E, 1 / math.E})
	if !matrix.ApproxEqual(e, want, 1e-12) {
		t.Fatalf("Apply(exp) = %v want %v", e, want)
	}
}

func TestSymEigenRejectsBadInput(t *testing.T) {
	if _, err := SymEigen(matrix.New(2, 3)); err == nil {
		t.Fatal("rectangular input accepted")
	}
	asym := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymEigen(asym); err == nil {
		t.Fatal("asymmetric input accepted")
	}
	nan := matrix.Identity(2)
	nan.Set(0, 0, math.NaN())
	if _, err := SymEigen(nan); err == nil {
		t.Fatal("NaN input accepted")
	}
}

func TestQuickEigenvaluesMatchCharPoly2x2(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 || math.Abs(c) > 1e6 {
			return true
		}
		m := matrix.FromRows([][]float64{{a, b}, {b, c}})
		vals, err := SymEigenvalues(m)
		if err != nil {
			return false
		}
		// λ = (a+c)/2 ± sqrt(((a-c)/2)² + b²)
		mid := (a + c) / 2
		rad := math.Hypot((a-c)/2, b)
		scale := math.Max(1, math.Abs(a)+math.Abs(b)+math.Abs(c))
		return math.Abs(vals[0]-(mid+rad)) < 1e-9*scale &&
			math.Abs(vals[1]-(mid-rad)) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShiftInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 2 + int(seed%6)
		a := randSym(n, rng)
		shift := rng.Float64()*10 - 5
		vals1, err := SymEigenvalues(a)
		if err != nil {
			return false
		}
		b := a.Clone()
		matrix.AddScaledIdentity(b, shift)
		vals2, err := SymEigenvalues(b)
		if err != nil {
			return false
		}
		for i := range vals1 {
			if math.Abs(vals2[i]-(vals1[i]+shift)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedEigenvalues(t *testing.T) {
	// I + rank-1: eigenvalues {1+n·s, 1, 1, ..., 1} for vvᵀ with unit v scaled.
	n := 6
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	a := matrix.OuterProduct(2, v)
	matrix.AddScaledIdentity(a, 1)
	vals, err := SymEigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if math.Abs(vals[0]-3) > 1e-10 {
		t.Fatalf("top value = %v want 3", vals[0])
	}
	for _, v := range vals[1:] {
		if math.Abs(v-1) > 1e-10 {
			t.Fatalf("repeated value = %v want 1", v)
		}
	}
}

func errNorm(a, b *matrix.Dense) float64 {
	d := matrix.New(a.R, a.C)
	matrix.Sub(d, a, b)
	return d.MaxAbs()
}

// BenchmarkSymEigenInto times the dense oracle's per-iteration
// eigendecomposition at the dense-solve shapes: a Ψ-like sum of
// low-rank PSD terms, decomposed into a reused Decomposition on a warm
// workspace (0 allocs/op).
func BenchmarkSymEigenInto(b *testing.B) {
	for _, m := range []int{8, 10, 24} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(uint64(m), 19))
			a := matrix.New(m, m)
			for t := 0; t < 4; t++ {
				matrix.AXPY(a, rng.Float64(), randPSD(m, 2, rng))
			}
			ws := work.New()
			var dec Decomposition
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SymEigenInto(ws, a, &dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
