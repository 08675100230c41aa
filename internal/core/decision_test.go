package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// --- instance builders with known optima ---

// identicalInstance: Aᵢ = A for all i. OPT = 1/λ_max(A) (only the sum
// Σxᵢ matters).
func identicalInstance(n, m int, rng *rand.Rand) ([]*matrix.Dense, float64) {
	g := matrix.New(m, m)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	a := matrix.MulABT(g, g, nil)
	// λmax via the characteristic fact Tr ≥ λmax; compute exactly:
	lmax := lambdaMaxOf(a)
	as := make([]*matrix.Dense, n)
	for i := range as {
		as[i] = a
	}
	return as, 1 / lmax
}

func lambdaMaxOf(a *matrix.Dense) float64 {
	set, err := NewDenseSet([]*matrix.Dense{a})
	if err != nil {
		panic(err)
	}
	cert, err := VerifyDual(set, []float64{0}, 0)
	_ = cert
	if err != nil {
		panic(err)
	}
	// VerifyDual with x=0 gives λmax(0)=0; do it properly via oracle:
	o := newDenseOracle(set, testEta, nil, nil)
	if err := o.init([]float64{1}); err != nil {
		panic(err)
	}
	lam, err := o.lambdaMaxPsi()
	if err != nil {
		panic(err)
	}
	return lam
}

// orthogonalRankOne: Aᵢ = vᵢvᵢᵀ with orthogonal vᵢ. Constraint becomes
// xᵢ‖vᵢ‖² ≤ 1 independently, so OPT = Σᵢ 1/‖vᵢ‖².
func orthogonalRankOne(n, m int, rng *rand.Rand) ([]*matrix.Dense, float64) {
	if n > m {
		panic("need n <= m for orthogonal directions")
	}
	// Gram–Schmidt on random Gaussian vectors.
	vs := make([][]float64, n)
	for i := range vs {
		v := make([]float64, m)
		for {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for k := 0; k < i; k++ {
				matrix.VecAXPY(v, -matrix.VecDot(v, vs[k])/matrix.VecDot(vs[k], vs[k]), vs[k])
			}
			if matrix.VecNorm2(v) > 1e-6 {
				break
			}
		}
		// Random scale so traces differ.
		matrix.VecScale(v, 0.5+rng.Float64()*2, v)
		vs[i] = v
	}
	opt := 0.0
	as := make([]*matrix.Dense, n)
	for i, v := range vs {
		as[i] = matrix.OuterProduct(1, v)
		opt += 1 / matrix.VecDot(v, v)
	}
	return as, opt
}

// diagonalInstance: Aᵢ = diag(pᵢ) with pᵢ ≥ 0 — a positive LP.
func diagonalInstance(n, m int, rng *rand.Rand) ([]*matrix.Dense, [][]float64) {
	as := make([]*matrix.Dense, n)
	cols := make([][]float64, n)
	for i := range as {
		d := make([]float64, m)
		for j := range d {
			if rng.Float64() < 0.7 {
				d[j] = rng.Float64()
			}
		}
		// Ensure nonzero.
		d[rng.IntN(m)] += 0.5
		as[i] = matrix.Diag(d)
		cols[i] = d
	}
	return as, cols
}

func toFactored(t *testing.T, as []*matrix.Dense) *FactoredSet {
	t.Helper()
	ds, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ds.Factorize(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// --- parameter tests ---

func TestParamsFormulas(t *testing.T) {
	p, err := ParamsFor(16, 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log(16)
	wantK := (1 + logN) / 0.2
	if math.Abs(p.K-wantK) > 1e-12 {
		t.Fatalf("K = %v want %v", p.K, wantK)
	}
	wantAlpha := 0.2 / (wantK * 3)
	if math.Abs(p.Alpha-wantAlpha) > 1e-12 {
		t.Fatalf("α = %v want %v", p.Alpha, wantAlpha)
	}
	if p.R < int(32*logN/(0.2*wantAlpha)) {
		t.Fatalf("R = %d too small", p.R)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := ParamsFor(0, 4, 0.1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ParamsFor(4, 4, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := ParamsFor(4, 4, 1); err == nil {
		t.Fatal("eps=1 accepted")
	}
	if _, err := ParamsFor(4, 4, math.NaN()); err == nil {
		t.Fatal("eps=NaN accepted")
	}
}

// --- decision tests ---

func TestDecisionDualBranchIdentity(t *testing.T) {
	// Aᵢ = I/2 for 4 constraints: OPT = 2 (Σxᵢ ≤ 2). Decision at scale 1
	// must find a dual solution (OPT > 1).
	as := make([]*matrix.Dense, 4)
	for i := range as {
		id := matrix.Identity(3)
		matrix.Scale(id, 0.5, id)
		as[i] = id
	}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DecisionPSDP(set, 0.2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Outcome != OutcomeDual {
		t.Fatalf("outcome = %v want dual (OPT=2)", dr.Outcome)
	}
	if dr.Lower < 0.7 {
		t.Fatalf("certified lower bound %v too weak for OPT=2 decision", dr.Lower)
	}
	// Certificate must verify independently.
	cert, err := VerifyDual(set, dr.DualX, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible {
		t.Fatalf("dual certificate infeasible: λmax = %v", cert.LambdaMax)
	}
}

func TestDecisionPrimalBranchScaledUp(t *testing.T) {
	// Same instance scaled so OPT = 0.5 < 1: must exit primal with a
	// certified upper bound near 0.5·(1+ε).
	as := make([]*matrix.Dense, 4)
	for i := range as {
		id := matrix.Identity(3)
		matrix.Scale(id, 0.5, id)
		as[i] = id
	}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	scaled := set.WithScale(4) // OPT = 2/4 = 0.5
	dr, err := DecisionPSDP(scaled, 0.2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Outcome != OutcomePrimal {
		t.Fatalf("outcome = %v want primal (OPT=0.5)", dr.Outcome)
	}
	if dr.Upper > 0.7 {
		t.Fatalf("certified upper bound %v too weak for OPT=0.5", dr.Upper)
	}
	if dr.Upper < 0.5-1e-9 {
		t.Fatalf("upper bound %v below true OPT 0.5: invalid certificate", dr.Upper)
	}
}

func TestDecisionBoundsAlwaysBracketKnownOPT(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	as, opt := orthogonalRankOne(5, 8, rng)
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{opt * 0.5, opt, opt * 2} {
		scaled := set.WithScale(theta)
		dr, err := DecisionPSDP(scaled, 0.2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		optScaled := opt / theta
		if dr.Lower > optScaled*(1+1e-9) {
			t.Fatalf("θ=%v: lower %v exceeds OPT %v", theta, dr.Lower, optScaled)
		}
		if dr.Upper < optScaled*(1-1e-9) {
			t.Fatalf("θ=%v: upper %v below OPT %v", theta, dr.Upper, optScaled)
		}
	}
}

// Lemma 3.2: the spectrum stays below (1+10ε)K throughout.
func TestDecisionSpectrumBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	as, opt := identicalInstance(6, 4, rng)
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.25
	dr, err := DecisionPSDP(set.WithScale(opt), eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := (1 + 10*eps) * dr.Params.K
	if dr.MaxPsiNorm > bound {
		t.Fatalf("Lemma 3.2 violated: max λmax(Ψ) = %v > (1+10ε)K = %v", dr.MaxPsiNorm, bound)
	}
	if dr.Iterations > dr.Params.R {
		t.Fatalf("iterations %d exceeded R = %d", dr.Iterations, dr.Params.R)
	}
}

func TestDecisionTheoryExactMode(t *testing.T) {
	// Tiny instance with OPT=2 (well above 1): theory mode must hit the
	// ‖x‖>K dual exit within R iterations.
	as := []*matrix.Dense{matrix.Diag([]float64{0.5, 0.25})}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DecisionPSDP(set, 0.3, Options{TheoryExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Outcome != OutcomeDual {
		t.Fatalf("outcome = %v want dual", dr.Outcome)
	}
	if matrix.VecSum(dr.X) <= dr.Params.K {
		t.Fatal("theory mode exited dual without ‖x‖ > K")
	}
	// Paper's dual scaling: x̂ = x/((1+10ε)K) has value ≥ 1−10ε.
	xhat := matrix.VecClone(dr.X)
	matrix.VecScale(xhat, 1/((1+10*0.3)*dr.Params.K), xhat)
	if matrix.VecSum(xhat) < 1-10*0.3-1e-9 {
		t.Fatalf("paper dual value %v below 1−10ε", matrix.VecSum(xhat))
	}
	cert, err := VerifyDual(set, xhat, 1e-8)
	if err != nil || !cert.Feasible {
		t.Fatalf("paper-scaled dual solution infeasible: %+v err=%v", cert, err)
	}
}

func TestDecisionZeroConstraintUnusable(t *testing.T) {
	// One zero constraint among normal ones: frozen, never updated, and
	// the solver still works on the others.
	as := []*matrix.Dense{matrix.New(3, 3), matrix.Identity(3)}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DecisionPSDP(set, 0.2, Options{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if dr.X[0] != 0 {
		t.Fatalf("zero constraint got weight %v", dr.X[0])
	}
}

func TestDecisionFactoredMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	as, opt := orthogonalRankOne(4, 6, rng)
	dense, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	fact := toFactored(t, as)

	dd, err := DecisionPSDP(dense.WithScale(opt), 0.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := DecisionPSDP(fact.WithScale(opt), 0.25, Options{Seed: 1, SketchEps: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	// Both must bracket OPT_scaled = 1.
	for name, dr := range map[string]*DecisionResult{"dense": dd, "factored": fd} {
		if dr.Lower > 1+1e-6 || dr.Upper < 1-1e-6 {
			t.Fatalf("%s: bracket [%v, %v] misses OPT 1", name, dr.Lower, dr.Upper)
		}
	}
	// And agree roughly on iteration count (same algorithm, noisy oracle).
	ratio := float64(fd.Iterations) / float64(dd.Iterations)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("iteration counts diverge: dense %d vs factored %d", dd.Iterations, fd.Iterations)
	}
}

func TestDecisionFactoredExactOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	as, opt := orthogonalRankOne(3, 5, rng)
	fact := toFactored(t, as)
	dr, err := DecisionPSDP(fact.WithScale(opt), 0.25, Options{Oracle: OracleFactoredExact})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Lower > 1+1e-6 || dr.Upper < 1-1e-6 {
		t.Fatalf("factored-exact bracket [%v, %v] misses OPT 1", dr.Lower, dr.Upper)
	}
}

func TestDecisionOptionValidation(t *testing.T) {
	as := []*matrix.Dense{matrix.Identity(2)}
	set, _ := NewDenseSet(as)
	if _, err := DecisionPSDP(set, -0.1, Options{}); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := DecisionPSDP(set, 0.2, Options{Oracle: OracleFactoredJL}); err == nil {
		t.Fatal("factored oracle on dense set accepted")
	}
	if _, err := DecisionPSDP(set, 0.2, Options{Oracle: OracleKind(99)}); err == nil {
		t.Fatal("bogus oracle kind accepted")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeDual.String() != "dual" || OutcomePrimal.String() != "primal" || OutcomeInconclusive.String() != "inconclusive" {
		t.Fatal("Outcome.String wrong")
	}
}

// --- set tests ---

func TestNewDenseSetValidation(t *testing.T) {
	if _, err := NewDenseSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewDenseSet([]*matrix.Dense{matrix.Identity(2), matrix.Identity(3)}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	asym := matrix.FromRows([][]float64{{1, 2}, {0, 1}})
	if _, err := NewDenseSet([]*matrix.Dense{asym}); err == nil {
		t.Fatal("asymmetric constraint accepted")
	}
	nan := matrix.Identity(2)
	nan.Set(0, 0, math.NaN())
	if _, err := NewDenseSet([]*matrix.Dense{nan}); err == nil {
		t.Fatal("NaN constraint accepted")
	}
}

func TestDenseSetScaleView(t *testing.T) {
	set, err := NewDenseSet([]*matrix.Dense{matrix.Diag([]float64{2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	s2 := set.WithScale(2)
	if s2.Trace(0) != 10 || set.Trace(0) != 5 {
		t.Fatalf("scale view wrong: %v / %v", s2.Trace(0), set.Trace(0))
	}
	s4 := s2.WithScale(2)
	if s4.Trace(0) != 20 {
		t.Fatal("scale composition wrong")
	}
}

func TestApplyPsiDenseVsFactored(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	as, _ := orthogonalRankOne(4, 7, rng)
	dense, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	fact := toFactored(t, as)
	x := []float64{0.3, 1.2, 0, 0.7}
	in := make([]float64, 7)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	od, of := make([]float64, 7), make([]float64, 7)
	dense.WithScale(1.7).ApplyPsi(x, in, od)
	fact.WithScale(1.7).ApplyPsi(x, in, of)
	for i := range od {
		if math.Abs(od[i]-of[i]) > 1e-9 {
			t.Fatalf("ApplyPsi mismatch at %d: %v vs %v", i, od[i], of[i])
		}
	}
}

func TestFactoredSetDensifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	as, _ := orthogonalRankOne(3, 5, rng)
	dense, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	fact := toFactored(t, as)
	back, err := fact.Densify()
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if !matrix.ApproxEqual(back.A[i], dense.A[i], 1e-8) {
			t.Fatalf("constraint %d: densify round trip failed", i)
		}
	}
}

func TestNewFactoredSetValidation(t *testing.T) {
	if _, err := NewFactoredSet(nil); err == nil {
		t.Fatal("empty factored set accepted")
	}
	q1, _ := sparse.NewCSC(3, 1, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	q2, _ := sparse.NewCSC(4, 1, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := NewFactoredSet([]*sparse.CSC{q1, q2}); err == nil {
		t.Fatal("mismatched row dims accepted")
	}
}

func TestValidatePSDCatchesIndefinite(t *testing.T) {
	bad := matrix.FromRows([][]float64{{1, 2}, {2, 1}})
	set, err := NewDenseSet([]*matrix.Dense{matrix.Identity(2), bad})
	if err != nil {
		t.Fatal(err) // trace is positive, so construction succeeds
	}
	if err := set.ValidatePSD(0); err == nil {
		t.Fatal("indefinite constraint passed ValidatePSD")
	}
}
