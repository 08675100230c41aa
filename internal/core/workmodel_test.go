package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/expm"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// One operator-oracle call advances its rows' ExpMV chains side by side
// in one lockstep block, so the analytic cost model must charge rows ×
// one chain's work but only one chain's depth, plus the rows·q constraint dots of ExpDots. Both
// oracles are pinned to that formula: the JL oracle over its sketch
// rows, the exact oracle over all m basis columns.
func TestOperatorOracleWorkModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	const m = 12
	cs := make([]*sparse.CSC, 6)
	for i := range cs {
		cs[i] = randSparseSymPSD(m, 2, rng)
	}
	set, err := NewSparseSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, set.N())
	for i := range x {
		x[i] = 2 / (float64(set.N()) * set.Trace(i))
	}
	want := func(rows int, lambda, tol float64) (int64, int64) {
		w, d := expm.ExpMVCost(set.NNZ(), 0.55*lambda+0.5, tol, m)
		return int64(rows)*w + int64(rows)*int64(2*set.NNZ()), d + parallel.Log2(m)
	}

	t.Run("jl", func(t *testing.T) {
		var st parallel.Stats
		o := newOpJLOracle(set, 0.5, 3, &st, nil)
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.ratios(); err != nil {
			t.Fatal(err)
		}
		w, d := want(o.rows, o.lambdaEst, o.tol)
		if o.rows < 2 {
			t.Fatalf("%d sketch rows; the test needs several", o.rows)
		}
		if st.Work() != w || st.Depth() != d {
			t.Fatalf("work %d depth %d, want %d %d", st.Work(), st.Depth(), w, d)
		}
	})
	t.Run("exact", func(t *testing.T) {
		var st parallel.Stats
		o := newOpExactOracle(set, 3, &st, nil)
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.ratios(); err != nil {
			t.Fatal(err)
		}
		w, d := want(m, o.lambdaEst, 1e-12)
		if st.Work() != w || st.Depth() != d {
			t.Fatalf("work %d depth %d, want %d %d", st.Work(), st.Depth(), w, d)
		}
	})
}
