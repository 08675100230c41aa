package expm

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/eigen"
	"repro/internal/matrix"
)

func randPSD(n, r int, rng *rand.Rand) *matrix.Dense {
	g := matrix.New(n, r)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return matrix.MulABT(g, g, nil)
}

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

func TestExpSymDiagonal(t *testing.T) {
	a := matrix.Diag([]float64{0, 1, 2})
	e, err := ExpSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Diag([]float64{1, math.E, math.E * math.E})
	if !matrix.ApproxEqual(e, want, 1e-12) {
		t.Fatalf("exp(diag) = %v", e)
	}
}

func TestExpSymZero(t *testing.T) {
	e, err := ExpSym(matrix.New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(e, matrix.Identity(4), 1e-14) {
		t.Fatal("exp(0) != I")
	}
}

func TestExpSymAdditivityCommuting(t *testing.T) {
	// exp(A+B) = exp(A)exp(B) when A, B commute (both polynomials in same S).
	rng := rand.New(rand.NewPCG(1, 2))
	s := randSym(5, rng)
	a := matrix.MulAB(s, s, nil) // s²
	b := s.Clone()
	sum := matrix.New(5, 5)
	matrix.Add(sum, a, b)
	lhs, err := ExpSym(sum)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := ExpSym(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ExpSym(b)
	if err != nil {
		t.Fatal(err)
	}
	rhs := matrix.MulAB(ea, eb, nil)
	if !matrix.ApproxEqual(lhs, rhs, 1e-7*lhs.MaxAbs()) {
		t.Fatal("exp(A+B) != exp(A)exp(B) for commuting A, B")
	}
}

func TestNormalizedExpSymNoOverflow(t *testing.T) {
	// ‖a‖ = 5000 would make exp(a) overflow; the normalized version must not.
	a := matrix.Diag([]float64{5000, 4999, 0})
	p, lmax, logTr, err := NormalizedExpSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if lmax != 5000 {
		t.Fatalf("λmax = %v", lmax)
	}
	if math.Abs(p.Trace()-1) > 1e-12 {
		t.Fatalf("Tr[P] = %v want 1", p.Trace())
	}
	// exact: Tr[exp] = e^5000 + e^4999 + 1, logTr = 5000 + log(1+1/e+e^-5000)
	wantLogTr := 5000 + math.Log(1+math.Exp(-1)+math.Exp(-5000))
	if math.Abs(logTr-wantLogTr) > 1e-9 {
		t.Fatalf("logTr = %v want %v", logTr, wantLogTr)
	}
	// P entries: p11 = 1/(1+1/e), p22 = (1/e)/(1+1/e), p33 ≈ 0.
	den := 1 + math.Exp(-1)
	if math.Abs(p.At(0, 0)-1/den) > 1e-12 || math.Abs(p.At(1, 1)-math.Exp(-1)/den) > 1e-12 {
		t.Fatalf("P diag = %v %v", p.At(0, 0), p.At(1, 1))
	}
}

func TestNormalizedExpMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randPSD(7, 7, rng)
	p, _, logTr, err := NormalizedExpSym(a)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExpSym(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	direct := e.Clone()
	matrix.Scale(direct, 1/tr, direct)
	if !matrix.ApproxEqual(p, direct, 1e-10) {
		t.Fatal("normalized exp disagrees with direct computation")
	}
	if math.Abs(logTr-math.Log(tr)) > 1e-9 {
		t.Fatalf("logTr = %v want %v", logTr, math.Log(tr))
	}
}

func TestTaylorDegree(t *testing.T) {
	if TaylorDegree(0, 0.5) < 1 {
		t.Fatal("degree must be >= 1")
	}
	// For large κ the e²κ term dominates.
	k := TaylorDegree(10, 0.1)
	if float64(k) < math.E*math.E*10 {
		t.Fatalf("degree %d below e²κ", k)
	}
	// For tiny ε with small κ the log term dominates.
	k2 := TaylorDegree(0.01, 1e-9)
	if float64(k2) < math.Log(2e9) {
		t.Fatalf("degree %d below ln(2/ε)", k2)
	}
}

// Lemma 4.2: (1−ε)·exp(B) ≼ B̂ ≼ exp(B) at the prescribed degree.
func TestTaylorLoewnerSandwich(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, kappa := range []float64{0.5, 2, 8} {
		eps := 0.1
		b := randPSD(6, 6, rng)
		// Rescale to ‖b‖₂ = kappa.
		lmax, err := eigen.LambdaMax(b)
		if err != nil {
			t.Fatal(err)
		}
		matrix.Scale(b, kappa/lmax, b)
		k := TaylorDegree(kappa, eps)
		hat := TaylorExpPSD(b, k)
		exact, err := ExpSym(b)
		if err != nil {
			t.Fatal(err)
		}
		// upper: exp(B) − B̂ ≽ 0
		diff := matrix.New(6, 6)
		matrix.Sub(diff, exact, hat)
		if ok, err := eigen.IsPSD(diff, 1e-9); err != nil || !ok {
			t.Fatalf("κ=%v: B̂ ≼ exp(B) violated (err=%v)", kappa, err)
		}
		// lower: B̂ − (1−ε)exp(B) ≽ 0
		lower := exact.Clone()
		matrix.Scale(lower, 1-eps, lower)
		matrix.Sub(diff, hat, lower)
		if ok, err := eigen.IsPSD(diff, 1e-9); err != nil || !ok {
			t.Fatalf("κ=%v: (1−ε)exp(B) ≼ B̂ violated (err=%v)", kappa, err)
		}
	}
}

func TestTaylorConvergesToExp(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	b := randPSD(5, 5, rng)
	exact, err := ExpSym(b)
	if err != nil {
		t.Fatal(err)
	}
	hat := TaylorExpPSD(b, 60)
	if !matrix.ApproxEqual(hat, exact, 1e-10*exact.MaxAbs()) {
		t.Fatal("high-degree Taylor does not match exact exponential")
	}
}

func applyDense(a *matrix.Dense) func(in, out []float64) {
	return func(in, out []float64) { a.MulVecTo(out, in) }
}

func TestExpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{1, 4, 12} {
		a := randPSD(n, n, rng)
		lmax, err := eigen.LambdaMax(a)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExpSym(a)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		w, logScale := ExpMV(applyDense(a), v, lmax, 1e-13)
		want := exact.MulVec(v)
		scale := math.Exp(logScale)
		for i := range want {
			if math.Abs(scale*w[i]-want[i]) > 1e-8*math.Max(1, matrix.VecNorm2(want)) {
				t.Fatalf("n=%d: ExpMV mismatch at %d: %v vs %v", n, i, scale*w[i], want[i])
			}
		}
	}
}

func TestExpMVLargeNormLogScale(t *testing.T) {
	// exp(A)v for A = diag(800, 0): overflows float64 if computed naively
	// (e^800 ≈ 2.7e347), but the log-scale form must survive.
	a := matrix.Diag([]float64{800, 0})
	v := []float64{1, 1}
	w, logScale := ExpMV(applyDense(a), v, 800, 1e-12)
	// True result: (e^800, 1); normalized direction ≈ (1, e^-800);
	// logScale ≈ 800.
	if math.Abs(logScale-800) > 1e-6 {
		t.Fatalf("logScale = %v want ≈ 800", logScale)
	}
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]) > 1e-100 {
		t.Fatalf("direction = %v want ≈ (1, 0)", w)
	}
}

func TestExpMVZeroVector(t *testing.T) {
	a := matrix.Identity(3)
	w, logScale := ExpMV(applyDense(a), []float64{0, 0, 0}, 1, 0)
	if matrix.VecNorm2(w) != 0 || logScale != 0 {
		t.Fatal("exp(A)·0 should be 0")
	}
}

func TestExpMVZeroOperator(t *testing.T) {
	z := matrix.New(3, 3)
	v := []float64{1, 2, 2}
	w, logScale := ExpMV(applyDense(z), v, 0, 0)
	// exp(0)v = v: direction v/|v|, logScale = log 3.
	if math.Abs(logScale-math.Log(3)) > 1e-12 {
		t.Fatalf("logScale = %v want log 3", logScale)
	}
	if math.Abs(w[0]-1.0/3) > 1e-12 {
		t.Fatalf("direction = %v", w)
	}
}

// Property: for random PSD A and v, |exp(A)v| from ExpMV matches the
// dense computation in log-space.
func TestQuickExpMVNorm(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 2 + int(seed%5)
		a := randPSD(n, n, rng)
		lmax, err := eigen.LambdaMax(a)
		if err != nil {
			return false
		}
		exact, err := ExpSym(a)
		if err != nil {
			return false
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if matrix.VecNorm2(v) == 0 {
			return true
		}
		w, logScale := ExpMV(applyDense(a), v, lmax, 1e-12)
		gotLog := logScale + math.Log(matrix.VecNorm2(w))
		wantLog := math.Log(matrix.VecNorm2(exact.MulVec(v)))
		return math.Abs(gotLog-wantLog) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExpMVCostGrowsWithNorm(t *testing.T) {
	w1, d1 := ExpMVCost(100, 16, 1e-12, 32)
	if w1 <= 0 || d1 <= 0 {
		t.Fatalf("no analytic cost: work=%d depth=%d", w1, d1)
	}
	if w2, _ := ExpMVCost(100, 32, 1e-12, 32); w2 <= w1 {
		t.Fatal("doubling the norm bound should increase analytic work")
	}
}
