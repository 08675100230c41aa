package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/eigen"
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

// The dense oracle charges the work it does: on a diagonal set 2·n·m
// for the ratio dots plus four O(m) passes per ratios call and |b|·m
// per update, not the eigensolver route's 9m³ + 2·n·m² and |b|·m². On
// the eigensolver route, a call after an update takes the warm route
// and is charged the path it took: eigen.RefineCost for the shortcut
// alone (eta = 1e3) or for B's formation and any sweeps (eta = 1e-10;
// on this diagonal set B is already diagonal), plus 2m³ + m for the congruence and its trace, and the same
// dots.
func TestDenseOracleWorkModel(t *testing.T) {
	const n, m = 5, 6
	set := diagTestSet(t, n, m, rand.New(rand.NewPCG(8, 9)))
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / (float64(n) * max(set.Trace(i), 1))
	}
	b, mults := []int{0, 2, 3}, []float64{1.1, 1.2, 1.3}
	lg := parallel.Log2(m)
	for _, c := range []struct {
		name                 string
		set                  *DenseSet
		eta                  float64
		ratioWork, updWork   int64
		ratioDepth, updDepth int64
	}{
		{"diagonal", set, testEta, 2*n*m + 4*m, int64(len(b)) * m, 3 * lg, parallel.Log2(len(b) + 1)},
		{"shortcut", set.eigenRoute(), 1e3, 9*m*m*m + 2*n*m*m, int64(len(b)) * m * m, m*lg + lg, parallel.Log2(len(b) + 1)},
		{"sweeps", set.eigenRoute(), 1e-10, 9*m*m*m + 2*n*m*m, int64(len(b)) * m * m, m*lg + lg, parallel.Log2(len(b) + 1)},
	} {
		var st parallel.Stats
		o := newDenseOracle(c.set, c.eta, &st, nil)
		if err := o.init(x); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.ratios(); err != nil {
			t.Fatal(err)
		}
		if st.Work() != c.ratioWork || st.Depth() != c.ratioDepth {
			t.Fatalf("%s ratios: work %d depth %d, want %d %d", c.name, st.Work(), st.Depth(), c.ratioWork, c.ratioDepth)
		}
		if err := o.update(b, mults, x); err != nil {
			t.Fatal(err)
		}
		if w, d := st.Work()-c.ratioWork, st.Depth()-c.ratioDepth; w != c.updWork || d != c.updDepth {
			t.Fatalf("%s update: work %d depth %d, want %d %d", c.name, w, d, c.updWork, c.updDepth)
		}
		if o.psiD != nil {
			continue
		}
		w0, d0 := st.Work(), st.Depth()
		if _, _, err := o.ratios(); err != nil {
			t.Fatal(err)
		}
		if formed := c.eta < 1; formed == (o.shortcuts == 1) || !o.warm {
			t.Fatalf("%s: %d shortcuts, kept basis %v", c.name, o.shortcuts, o.warm)
		}
		ww, wd := eigen.RefineCost(m, o.sweeps, o.shortcuts == 0)
		ww += 2*m*m*m + m + 2*n*m*m
		wd += 3 * lg
		if w, d := st.Work()-w0, st.Depth()-d0; w != ww || d != wd {
			t.Fatalf("%s: warm ratios after %d sweeps: work %d depth %d, want %d %d", c.name, o.sweeps, w, d, ww, wd)
		}
	}
}

// The warm route's shortcut is charged T = a·V (2n³) and the column
// dots with ‖a‖_F² (3n²) at depth 2·log₂n. Forming B adds its upper
// triangle (n²(n+1)) and a convergence test (2n²), log₂n deep each; a
// sweep adds n(n−1)/2 rotations of 12n flops plus another test, and one
// depth unit per round of disjoint pairs (n−1 rounds for even n, n for
// odd) plus log₂n.
func TestRefineCostPerSweep(t *testing.T) {
	for _, c := range []struct{ n, rounds int }{{6, 5}, {7, 7}, {10, 9}} {
		n, lg := int64(c.n), parallel.Log2(c.n)
		ws, ds := eigen.RefineCost(c.n, 0, false)
		if ws != 2*n*n*n+3*n*n || ds != 2*lg {
			t.Fatalf("n=%d: the shortcut costs work %d depth %d", c.n, ws, ds)
		}
		w0, d0 := eigen.RefineCost(c.n, 0, true)
		if w0-ws != n*n*(n+1)+2*n*n || d0-ds != 2*lg {
			t.Fatalf("n=%d: forming B adds work %d depth %d", c.n, w0-ws, d0-ds)
		}
		w1, d1 := eigen.RefineCost(c.n, 1, true)
		if w1-w0 != n*(n-1)/2*12*n+2*n*n || d1-d0 != int64(c.rounds)+lg {
			t.Fatalf("n=%d: a sweep adds work %d depth %d", c.n, w1-w0, d1-d0)
		}
	}
}
