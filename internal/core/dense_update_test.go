package core

import (
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
		o := newDenseOracle(set, nil, work.New())
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

// BenchmarkDenseOracleStep times one dense-oracle iteration, ratios
// then update, at the decision scale of a mid-bisection call, on three
// shapes: dense-8x8, dense-solve's Maximize classes (n = 8 constraints
// of dimension 8); diag-20x24, its mixed-LP classes (n = 20 diagonal
// constraints of dimension 24, which take the diagonal route); and
// dense-20x24, the same shape with dense constraints. The update bumps
// the coordinates whose ratio is at most 1+ε by a factor 1+1e-6, so x
// and Ψ stay bounded over any b.N; a warm iteration allocates nothing.
func BenchmarkDenseOracleStep(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	small := gen.RandomDense(8, 8, 0, rng).A
	lp, err := gen.MixedCoveringLP(20, 24, 12, 0.4, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		as   []*matrix.Dense
	}{
		{"dense-8x8", small},
		{"diag-20x24", lp.A},
		{"dense-20x24", gen.RandomDense(20, 24, 0, rng).A},
	} {
		b.Run(c.name, func(b *testing.B) {
			set, err := NewDenseSet(c.as)
			if err != nil {
				b.Fatal(err)
			}
			benchDenseOracleStep(b, set)
		})
	}
}

func benchDenseOracleStep(b *testing.B, set *DenseSet) {
	d, err := newDecisionRun(set.WithScale(0.5), 0.25, Options{Seed: 1, TheoryExact: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.orc.release()
	o := d.orc.(*denseOracle)
	x := d.x
	idx := make([]int, 0, len(x))
	mults := make([]float64, len(x))
	for i := range mults {
		mults[i] = 1 + 1e-6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		r, _, err := o.ratios()
		if err != nil {
			b.Fatal(err)
		}
		idx = idx[:0]
		for i, v := range r {
			if v <= 1.25 {
				idx = append(idx, i)
				x[i] *= mults[0]
			}
		}
		if err := o.update(idx, mults[:len(idx)], x); err != nil {
			b.Fatal(err)
		}
	}
}
