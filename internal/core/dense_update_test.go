package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/work"
)

// refDenseUpdate is the dense oracle's Ψ update as it stood before the
// fused pass: one AXPY sweep over Ψ per bumped constraint, in b order,
// with VecAXPY's loop written out.
func refDenseUpdate(psi *matrix.Dense, set *DenseSet, b []int, mults, x []float64) {
	for j, i := range b {
		f := 1 - 1/mults[j]
		s := set.scale * x[i] * f
		a := set.A[i].Data
		for k := range psi.Data {
			psi.Data[k] += s * a[k]
		}
	}
}

// TestDenseUpdateMatchesAXPY holds the fused Ψ update (up to four
// constraints per pass) to the per-constraint AXPY loop bit for bit,
// for |b| = 1…9 in shuffled order, including a dimension large enough
// for the blocked parallel pass.
func TestDenseUpdateMatchesAXPY(t *testing.T) {
	for _, m := range []int{8, 24, 72} {
		rng := rand.New(rand.NewPCG(uint64(m), 19))
		set, err := NewDenseSet(gen.RandomDense(12, m, 0, rng).A)
		if err != nil {
			t.Fatal(err)
		}
		set = set.WithScale(0.37).(*DenseSet)
		o := newDenseOracle(set, testEta, nil, work.New())
		x := make([]float64, set.N())
		for i := range x {
			x[i] = rng.Float64()
		}
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
		ref := o.psi.Clone()
		for nb := 1; nb <= 9; nb++ {
			b := rng.Perm(set.N())[:nb]
			mults := make([]float64, nb)
			for j, i := range b {
				mults[j] = 1 + rng.Float64()
				x[i] *= mults[j]
			}
			refDenseUpdate(ref, set, b, mults, x)
			if err := o.update(b, mults, x); err != nil {
				t.Fatal(err)
			}
			for k := range ref.Data {
				if math.Float64bits(o.psi.Data[k]) != math.Float64bits(ref.Data[k]) {
					t.Fatalf("m=%d |b|=%d: Ψ entry %d = %v, AXPY loop %v", m, nb, k, o.psi.Data[k], ref.Data[k])
				}
			}
		}
	}
}

// BenchmarkDenseOracleStep times one step of a real MMW decision run —
// ratios, the rule's pick and the Ψ update — with TheoryExact, at the
// criticalScale, where the run bumps some coordinates and not others,
// as Maximize's decision calls do. The run restarts on the same
// workspace whenever it exits, so Ψ moves as the solver moves it.
// dense-m<m> runs n = m random full-rank constraints of dimension m
// (dense-m8 and dense-m10 are near dense-solve's 8×8 and 6×10 Maximize
// shapes) twice: "warm" as the oracle runs, at eta = ε/4, reporting the
// steps the shortcut accepted (shortcuts/op) and the Jacobi sweeps per
// step, and "full" with the kept basis dropped before every step,
// so every call runs tred2 + tqli. diag-20x24 is dense-solve's mixed-LP
// shape, which takes the diagonal route. A warm step allocates
// nothing; restarts do.
func BenchmarkDenseOracleStep(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	lp, err := gen.MixedCoveringLP(20, 24, 12, 0.4, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("diag-20x24", func(b *testing.B) {
		benchDenseOracleStep(b, criticalSet(b, lp.A), true)
	})
	for _, m := range []int{8, 10, 16, 24, 32, 48} {
		set := criticalSet(b, gen.RandomDense(m, m, 0, rng).A)
		for _, warm := range []bool{true, false} {
			route := "full"
			if warm {
				route = "warm"
			}
			b.Run(fmt.Sprintf("dense-m%d/%s", m, route), func(b *testing.B) {
				benchDenseOracleStep(b, set, warm)
			})
		}
	}
}

// criticalSet is as at its criticalScale.
func criticalSet(b *testing.B, as []*matrix.Dense) ConstraintSet {
	set, err := NewDenseSet(as)
	if err != nil {
		b.Fatal(err)
	}
	return set.WithScale(criticalScale(b, set))
}

func benchDenseOracleStep(b *testing.B, set ConstraintSet, warm bool) {
	opts := Options{Seed: 1, TheoryExact: true, Workspace: work.New()}
	start := func() *decisionRun {
		d, err := newDecisionRun(set, 0.25, opts)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	d := start()
	sweeps, shortcuts := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if d.done || d.t >= d.maxIter {
			o := d.orc.(*denseOracle)
			sweeps += o.sweeps
			shortcuts += o.shortcuts
			o.release()
			d = start()
		}
		if !warm {
			d.orc.(*denseOracle).warm = false
		}
		if err := d.step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	o := d.orc.(*denseOracle)
	b.ReportMetric(float64(sweeps+o.sweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(shortcuts+o.shortcuts)/float64(b.N), "shortcuts/op")
	o.release()
}
