package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/work"
)

// criticalScale is √(Lower·Upper) of a coarse Maximize on set: the
// decision scale at which a run bumps some coordinates and not others,
// as Maximize's bisection calls do.
func criticalScale(tb testing.TB, set *DenseSet) float64 {
	tb.Helper()
	sol, err := MaximizePacking(set, 0.5, Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return math.Sqrt(sol.Lower * sol.Upper)
}

// testEta is the warm route's eta in tests that build a dense oracle
// directly: ε/4 at the ε = 0.2 most of them run at.
const testEta = 0.05

// nearbyContract measures o's last ratios call against the warm
// route's contract: with Ψ̃ = V·diag(values)·Vᵀ from o.dec, it returns
// ‖Ψ̃ − Ψ‖_F and the gaps of P (absolute, entrywise) and λ_max (relative
// to max(1, |λ|)) from NormalizedExpSymInto on Ψ̃, using ref and dec as
// scratch. A full-route call meets the same contract, with Ψ̃ = Ψ to
// rounding.
func nearbyContract(t *testing.T, o *denseOracle, info oracleInfo, ws *work.Workspace, ref *matrix.Dense, dec *eigen.Decomposition) (dist, dP, dLam float64) {
	t.Helper()
	m := o.set.m
	near := matrix.New(m, m)
	matrix.CongruenceDiagInto(near, o.dec.Vectors, o.dec.Values, nil)
	diff := matrix.New(m, m)
	matrix.Sub(diff, near, o.psi)
	lam, _, err := expm.NormalizedExpSymInto(ws, near, dec, ref)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range ref.Data {
		dP = math.Max(dP, math.Abs(o.p.Data[k]-v))
	}
	return diff.FrobNorm(), dP, math.Abs(info.LambdaMax-lam) / math.Max(1, math.Abs(lam))
}

// warmChecker wraps a dense oracle and, on every ratios call that took
// the warm route, holds it to the contract nearbyContract measures; on
// the last call before each Ψ rebuild it checks that the kept basis is
// still orthonormal.
type warmChecker struct {
	*denseOracle
	t                    *testing.T
	ref                  *matrix.Dense
	dec                  eigen.Decomposition
	ws                   *work.Workspace
	warmCalls, orthoSeen int
	worstDist            float64 // max ‖Ψ̃ − Ψ‖_F / eta
	worstP, worstLam     float64
}

func (c *warmChecker) ratios() ([]float64, oracleInfo, error) {
	warm := c.warm
	r, info, err := c.denseOracle.ratios()
	if err != nil || !warm {
		return r, info, err
	}
	c.warmCalls++
	dist, dP, dLam := nearbyContract(c.t, c.denseOracle, info, c.ws, c.ref, &c.dec)
	c.worstDist = math.Max(c.worstDist, dist/c.eta)
	c.worstP = math.Max(c.worstP, dP)
	c.worstLam = math.Max(c.worstLam, dLam)
	if c.updatesSinceRebuild == denseRebuildPeriod-1 {
		c.orthoSeen++
		if e := orthErr(c.dec.Vectors); e > 1e-13 {
			c.t.Fatalf("before the rebuild at update %d: max|VᵀV − I| = %g", denseRebuildPeriod, e)
		}
	}
	return r, info, nil
}

// orthErr returns max|VᵀV − I|.
func orthErr(v *matrix.Dense) float64 {
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

// TestWarmEigenMatchesEigensolver replays one MMW and one ALO decision
// run at m ∈ {8, 10, 24}, each across at least one Ψ rebuild, and holds
// every warm-route call to its contract: the oracle's eta (ε/4) bounds
// ‖Ψ̃ − Ψ‖_F for Ψ̃ = V·diag(values)·Vᵀ, and P and λ_max are the full
// eigensolver's on Ψ̃, to 1e-11 absolute and 1e-12 relative, with the
// kept basis orthonormal to 1e-13 just before each rebuild.
func TestWarmEigenMatchesEigensolver(t *testing.T) {
	for _, m := range []int{8, 10, 24} {
		rng := rand.New(rand.NewPCG(uint64(m), 23))
		set, err := NewDenseSet(gen.RandomDense(m, m, 0, rng).A)
		if err != nil {
			t.Fatal(err)
		}
		scaled := set.WithScale(criticalScale(t, set))
		for _, eng := range []EngineKind{EngineMMW, EngineALO} {
			t.Run(fmt.Sprintf("%v/m%d", eng, m), func(t *testing.T) {
				opts := Options{Engine: eng, Seed: 1, TheoryExact: true, MaxIter: 2*denseRebuildPeriod + 50}
				d, err := newDecisionRun(scaled, 0.2, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer d.orc.release()
				c := &warmChecker{denseOracle: d.orc.(*denseOracle), t: t, ref: matrix.New(m, m), ws: work.New()}
				d.orc = c
				if err := d.run(); err != nil {
					t.Fatal(err)
				}
				if c.warmCalls < d.t/2 || c.orthoSeen == 0 {
					t.Fatalf("%d iterations: %d warm calls and %d checks before a rebuild; the replay must exercise both",
						d.t, c.warmCalls, c.orthoSeen)
				}
				t.Logf("%d iterations, %d warm calls, %d shortcuts, %.2f sweeps per warm call: max ‖Ψ̃ − Ψ‖_F/eta = %.3g, max|ΔP| = %.2g, max |Δλ_max|/max(1, λ) = %.2g",
					d.t, c.warmCalls, c.shortcuts, float64(c.sweeps)/float64(c.warmCalls), c.worstDist, c.worstP, c.worstLam)
				if c.worstDist > 1+1e-9 || c.worstP > 1e-11 || c.worstLam > 1e-12 {
					t.Fatalf("over %d warm calls: max ‖Ψ̃ − Ψ‖_F/eta = %g, max|ΔP| = %g, max |Δλ_max|/max(1, λ) = %g",
						c.warmCalls, c.worstDist, c.worstP, c.worstLam)
				}
			})
		}
	}
}

// warmOracle returns a dense oracle at x that has run one ratios call,
// so its next call takes the warm route.
func warmOracle(t *testing.T, set *DenseSet, x []float64) *denseOracle {
	t.Helper()
	o := newDenseOracle(set, testEta, nil, work.New())
	if err := o.init(x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.ratios(); err != nil {
		t.Fatal(err)
	}
	if !o.warm {
		t.Fatal("the oracle kept no basis after a successful call")
	}
	return o
}

// TestWarmOracleFallsBack: when the warm route cannot finish, the
// oracle answers as the full eigensolver does. A Ψ that overflows
// returns today's error; a kept basis taken from an unrelated matrix
// still meets the warm route's contract, whether the sweeps reach eta
// or the call falls back to the full eigensolver.
func TestWarmOracleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	const n, m = 6, 10
	set, err := NewDenseSet(gen.RandomDense(n, m, 0, rng).A)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / (float64(n) * set.Trace(i))
	}

	t.Run("overflow", func(t *testing.T) {
		for _, mult := range []float64{math.Inf(1), 1e308, 1e160} {
			o := warmOracle(t, set, append([]float64(nil), x...))
			b := []int{0, 3}
			mults := []float64{mult, mult}
			for _, i := range b {
				o.x[i] *= mult
			}
			if err := o.update(b, mults, o.x); err != nil {
				t.Fatal(err)
			}
			rWarm, _, errWarm := o.ratios()
			fresh := newDenseOracle(set, testEta, nil, work.New())
			if err := fresh.init(o.x); err != nil {
				t.Fatal(err)
			}
			fresh.psi.CopyFrom(o.psi)
			rFull, _, errFull := fresh.ratios()
			switch {
			case errWarm != nil || errFull != nil:
				if errWarm == nil || errFull == nil || errWarm.Error() != errFull.Error() {
					t.Fatalf("mult %g: warm oracle error %v, eigensolver %v", mult, errWarm, errFull)
				}
			case !sameBits(rWarm, rFull) || !sameBits(o.p.Data, fresh.p.Data):
				t.Fatalf("mult %g: the warm oracle's answer differs from the eigensolver's", mult)
			}
			o.release()
			fresh.release()
		}
	})

	t.Run("stale-basis", func(t *testing.T) {
		o := warmOracle(t, set, x)
		defer o.release()
		other, err := eigen.SymEigen(gen.RandomDense(1, m, 0, rng).A[0])
		if err != nil {
			t.Fatal(err)
		}
		o.dec.Vectors.CopyFrom(other.Vectors)
		_, info, err := o.ratios()
		if err != nil {
			t.Fatal(err)
		}
		dist, dP, dLam := nearbyContract(t, o, info, work.New(), matrix.New(m, m), &eigen.Decomposition{})
		if dist > o.eta*(1+1e-9) || dP > 1e-11 || dLam > 1e-12 {
			t.Fatalf("‖Ψ̃ − Ψ‖_F = %g (eta %g), max|ΔP| = %g, |Δλ_max|/max(1, λ) = %g", dist, o.eta, dP, dLam)
		}
	})
}
