package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/matrix"
	"repro/internal/work"
)

// eigenRoute returns a view of s whose dense oracle takes the
// eigensolver route even when every constraint is diagonal: the
// reference the diagonal route must reproduce bit for bit.
func (s *DenseSet) eigenRoute() *DenseSet {
	c := *s
	c.diag = nil
	return &c
}

// diagTestSet builds n diagonal m×m constraints with the awkward cases
// of the diagonal route: zero diagonal entries, an all-zero constraint
// (the last, when n ≥ 2) and, when m ≥ 2, a second position that copies
// the first in every constraint and dominates the rest, so Ψ's largest
// diagonal entry is tied at every x.
func diagTestSet(t *testing.T, n, m int, rng *rand.Rand) *DenseSet {
	t.Helper()
	as := make([]*matrix.Dense, n)
	for i := range as {
		d := make([]float64, m)
		if n < 2 || i < n-1 {
			for k := range d {
				if rng.Float64() < 0.6 {
					d[k] = rng.Float64()
				}
			}
			d[rng.IntN(m)] = 0.3 + rng.Float64()
			if m >= 2 {
				d[0] = 1 + rng.Float64()
				d[1] = d[0]
			}
		}
		as[i] = matrix.Diag(d)
	}
	set, err := NewDenseSet(as)
	if err != nil {
		t.Fatal(err)
	}
	if set.diag == nil {
		t.Fatal("diagonal constraints were not packed")
	}
	return set
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// checkSameStep compares one ratios call of the diagonal and the
// eigensolver oracle bit for bit: the ratios, λ_max, log Tr exp(Ψ) and
// the density matrix.
func checkSameStep(t *testing.T, tag string, diag, dense expOracle) {
	t.Helper()
	rd, id, errD := diag.ratios()
	re, ie, errE := dense.ratios()
	if errD != nil || errE != nil {
		t.Fatalf("%s: ratios errors %v (diagonal) and %v (eigensolver)", tag, errD, errE)
	}
	if !sameBits(rd, re) {
		t.Fatalf("%s: ratios %v, eigensolver route %v", tag, rd, re)
	}
	if !sameBits([]float64{id.LambdaMax, id.LogTrW}, []float64{ie.LambdaMax, ie.LogTrW}) {
		t.Fatalf("%s: (λ_max, log Tr) = (%v, %v), eigensolver route (%v, %v)", tag, id.LambdaMax, id.LogTrW, ie.LambdaMax, ie.LogTrW)
	}
	if !sameBits(diag.probability().Data, dense.probability().Data) {
		t.Fatalf("%s: density matrix differs from the eigensolver route's", tag)
	}
}

// TestDiagOracleMatchesDense holds the dense oracle's diagonal route to
// its eigensolver route bit for bit: oracle by oracle over more than
// denseRebuildPeriod updates of |b| = 1…9, then whole runs under both
// engines and through RunMixed, for n, m ∈ {1, 2, 24}.
func TestDiagOracleMatchesDense(t *testing.T) {
	for _, n := range []int{1, 2, 24} {
		for _, m := range []int{1, 2, 24} {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(m)))
			set := diagTestSet(t, n, m, rng).WithScale(0.37).(*DenseSet)
			t.Run(fmt.Sprintf("oracle/%dx%d", n, m), func(t *testing.T) {
				checkOracleSteps(t, set, rng)
			})
			cover := matrix.New(3, n)
			for k := range cover.Data {
				if rng.Float64() < 0.7 {
					cover.Data[k] = 0.05 * rng.Float64()
				}
			}
			for _, eng := range []EngineKind{EngineMMW, EngineALO} {
				t.Run(fmt.Sprintf("decision/%v/%dx%d", eng, n, m), func(t *testing.T) {
					checkDecisionRuns(t, set, eng)
				})
				t.Run(fmt.Sprintf("mixed/%v/%dx%d", eng, n, m), func(t *testing.T) {
					checkMixedRuns(t, set, cover, eng)
				})
			}
		}
	}

	t.Run("signed-zero-tie", func(t *testing.T) {
		// Ψ never holds −0 on the solver's paths (its sums start at +0),
		// so the tie between −0 and +0 is written in directly: sortDesc
		// keeps the first of equal maxima, and λ_max carries its sign.
		set := diagTestSet(t, 2, 3, rand.New(rand.NewPCG(4, 4)))
		diag := newDenseOracle(set, testEta, nil, work.New())
		dense := newDenseOracle(set.eigenRoute(), testEta, nil, work.New())
		x := []float64{1, 1}
		for _, o := range []*denseOracle{diag, dense} {
			if err := o.init(x); err != nil {
				t.Fatal(err)
			}
		}
		psi := []float64{math.Copysign(0, -1), 0, -1}
		copy(diag.psiD, psi)
		dense.psi.Zero()
		for k, v := range psi {
			dense.psi.Set(k, k, v)
		}
		checkSameStep(t, "Ψ = diag(−0, +0, −1)", diag, dense)
		_, info, _ := diag.ratios()
		if !math.Signbit(info.LambdaMax) {
			t.Fatalf("λ_max = %v, want −0 (the first of the tied maxima)", info.LambdaMax)
		}
	})

	t.Run("off-diagonal-1e-300", func(t *testing.T) {
		set := diagTestSet(t, 3, 4, rand.New(rand.NewPCG(5, 5)))
		as := make([]*matrix.Dense, set.N())
		for i := range as {
			as[i] = set.A[i].Clone()
		}
		as[1].Set(0, 2, 1e-300)
		as[1].Set(2, 0, 1e-300)
		near, err := NewDenseSet(as)
		if err != nil {
			t.Fatal(err)
		}
		if near.diag != nil {
			t.Fatal("a set with a 1e-300 off-diagonal entry was packed as diagonal")
		}
		o := newDenseOracle(near, testEta, nil, work.New())
		if err := o.init([]float64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if o.psi == nil || o.psiD != nil {
			t.Fatal("the oracle of a non-diagonal set took the diagonal route")
		}
		o.release()
	})

	t.Run("non-finite", func(t *testing.T) {
		set := diagTestSet(t, 3, 4, rand.New(rand.NewPCG(6, 6)))
		for _, x := range [][]float64{{math.Inf(1), 1, 1}, {1e308, 1e308, 1}, {math.NaN(), 0, 0}} {
			var msgs [2]string
			for j, s := range []*DenseSet{set, set.eigenRoute()} {
				o := newDenseOracle(s, testEta, nil, work.New())
				if err := o.init(x); err != nil {
					t.Fatal(err)
				}
				_, _, err := o.ratios()
				if err == nil {
					t.Fatalf("x = %v: ratios accepted a non-finite Ψ", x)
				}
				msgs[j] = err.Error()
				o.release()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("x = %v: diagonal route fails with %q, eigensolver route with %q", x, msgs[0], msgs[1])
			}
		}
	})
}

// checkOracleSteps drives a diagonal-route and an eigensolver-route
// oracle through the same 300 updates, including a start at x = 0, and
// compares every ratios call.
func checkOracleSteps(t *testing.T, set *DenseSet, rng *rand.Rand) {
	n := set.N()
	diag := newDenseOracle(set, testEta, nil, work.New())
	dense := newDenseOracle(set.eigenRoute(), testEta, nil, work.New())
	defer diag.release()
	defer dense.release()
	x := make([]float64, n)
	for _, o := range []*denseOracle{diag, dense} {
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
	}
	checkSameStep(t, "x = 0", diag, dense)
	for i := range x {
		x[i] = rng.Float64() / max(set.Trace(i), 1)
	}
	for _, o := range []*denseOracle{diag, dense} {
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < denseRebuildPeriod+44; step++ {
		checkSameStep(t, fmt.Sprintf("step %d", step), diag, dense)
		b := rng.Perm(n)[:min(step%9+1, n)]
		mults := make([]float64, len(b))
		for j, i := range b {
			mults[j] = 1 + 0.05*rng.Float64()
			x[i] *= mults[j]
		}
		for _, o := range []*denseOracle{diag, dense} {
			if err := o.update(b, mults, x); err != nil {
				t.Fatal(err)
			}
		}
	}
	ld, errD := diag.lambdaMaxPsi()
	le, errE := dense.lambdaMaxPsi()
	if errD != nil || errE != nil || !sameBits([]float64{ld}, []float64{le}) {
		t.Fatalf("certificate λ_max %v (%v), eigensolver route %v (%v)", ld, errD, le, errE)
	}
	checkSameStep(t, "after the certificate rebuild", diag, dense)
}

// stepRecorder keeps a copy of the last ratios call's values, λ_max,
// log Tr and density matrix.
type stepRecorder struct {
	expOracle
	last []float64
}

func (s *stepRecorder) ratios() ([]float64, oracleInfo, error) {
	r, info, err := s.expOracle.ratios()
	if err == nil {
		s.last = append(append(append(s.last[:0], r...), info.LambdaMax, info.LogTrW), s.probability().Data...)
	}
	return r, info, err
}

// stepLockstep steps two runs side by side, comparing every iteration's
// oracle output and iterate bit for bit, until both stop.
func stepLockstep(t *testing.T, runs [2]*decisionRun) {
	t.Helper()
	var recs [2]*stepRecorder
	for j, d := range runs {
		recs[j] = &stepRecorder{expOracle: d.orc}
		d.orc = recs[j]
	}
	for !runs[0].done && runs[0].t < runs[0].maxIter {
		for _, d := range runs {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		if !sameBits(recs[0].last, recs[1].last) || !sameBits(runs[0].x, runs[1].x) {
			t.Fatalf("iteration %d differs from the eigensolver route", runs[0].t)
		}
	}
	if runs[1].done != runs[0].done || runs[1].t != runs[0].t {
		t.Fatalf("diagonal route stopped at t = %d, eigensolver route at t = %d", runs[0].t, runs[1].t)
	}
}

func checkDecisionRuns(t *testing.T, set *DenseSet, eng EngineKind) {
	opts := Options{Engine: eng, Seed: 1, TheoryExact: true, MaxIter: 300, TrackPrimalMatrix: true}
	var runs [2]*decisionRun
	for j, s := range []*DenseSet{set, set.eigenRoute()} {
		d, err := newDecisionRun(s, 0.2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.orc.release()
		runs[j] = d
	}
	stepLockstep(t, runs)
	var res [2]*DecisionResult
	for j, d := range runs {
		r, err := d.finish()
		if err != nil {
			t.Fatal(err)
		}
		res[j] = r
	}
	a, b := res[0], res[1]
	if a.Outcome != b.Outcome || a.Iterations != b.Iterations ||
		!sameBits([]float64{a.Lower, a.Upper, a.LambdaMaxPsi, a.MaxPsiNorm}, []float64{b.Lower, b.Upper, b.LambdaMaxPsi, b.MaxPsiNorm}) ||
		!sameBits(a.X, b.X) || !sameBits(a.DualX, b.DualX) || !sameBits(a.AvgRatios, b.AvgRatios) ||
		!sameBits(a.Y.Data, b.Y.Data) {
		t.Fatalf("results differ: %+v against the eigensolver route's %+v", a, b)
	}
}

func checkMixedRuns(t *testing.T, set *DenseSet, cover *matrix.Dense, eng EngineKind) {
	opts := Options{Engine: eng, Seed: 1, MaxIter: 300}
	var runs [2]*decisionRun
	for j, s := range []*DenseSet{set, set.eigenRoute()} {
		d, err := newMixedRun(s, cover, 0.2, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.orc.release()
		runs[j] = d
	}
	stepLockstep(t, runs)
	// The public entry point agrees too.
	var out [2]*MixedRun
	for j, s := range []*DenseSet{set, set.eigenRoute()} {
		r, err := RunMixed(s, cover, 0.2, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = r
	}
	if out[0].Iterations != out[1].Iterations || out[0].Capped != out[1].Capped || !sameBits(out[0].X, out[1].X) {
		t.Fatalf("RunMixed: %+v against the eigensolver route's %+v", out[0], out[1])
	}
}

// TestDiagOracleStepZeroAlloc: on a workspace a first run has warmed,
// a steady-state decision step on a diagonal set — through a Ψ rebuild
// and with the density matrix tracked — performs ZERO heap allocations
// and no pool miss.
func TestDiagOracleStepZeroAlloc(t *testing.T) {
	set := diagTestSet(t, 20, 24, rand.New(rand.NewPCG(7, 7)))
	ws := work.New()
	opts := Options{Seed: 1, TheoryExact: true, TrackPrimalMatrix: true, Workspace: ws, MaxIter: 8}
	if _, err := DecisionPSDP(set.WithScale(0.5), 0.25, opts); err != nil {
		t.Fatal(err)
	}
	warm := ws.Misses()
	opts.MaxIter = 0
	d, err := newDecisionRun(set.WithScale(0.5), 0.25, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.orc.release()
	if d.orc.(*denseOracle).psiD == nil {
		t.Fatal("the oracle did not take the diagonal route")
	}
	for i := 0; i < 4; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2*denseRebuildPeriod, func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.done {
		t.Fatalf("run terminated during measurement after %d iterations", d.t)
	}
	if allocs != 0 {
		t.Errorf("steady-state diagonal-route iteration allocates %.2f per run, want 0", allocs)
	}
	if got := ws.Misses(); got != warm {
		t.Errorf("the second run missed the shared workspace's pools %d times, want 0", got-warm)
	}
}
