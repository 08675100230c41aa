package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/work"
)

// opFamily is one of the four instance families of the sparse-solve
// benchmark workload, at its shape: graph edge packings and grouped
// Laplacians as SparseSets, edge factors and random factors as
// FactoredSets.
type opFamily struct {
	name  string
	build func(rng *rand.Rand) (PsiOperator, error)
}

func opFamilies() []opFamily {
	er := func(m int, deg float64, rng *rand.Rand) *graph.Graph {
		return graph.ErdosRenyi(m, deg/float64(m), rng)
	}
	return []opFamily{
		{"edge-sparse-12", func(rng *rand.Rand) (PsiOperator, error) {
			sp, err := gen.SparseEdgePacking(er(12, 4, rng))
			if err != nil {
				return nil, err
			}
			return NewSparseSet(sp.A)
		}},
		{"grouped-sparse-16", func(rng *rand.Rand) (PsiOperator, error) {
			sp, err := gen.SparseGroupedLaplacians(er(16, 6, rng), 8, rng)
			if err != nil {
				return nil, err
			}
			return NewSparseSet(sp.A)
		}},
		{"edge-factored-12", func(rng *rand.Rand) (PsiOperator, error) {
			f, err := gen.GraphEdgePacking(er(12, 4, rng))
			if err != nil {
				return nil, err
			}
			return NewFactoredSet(f.Q)
		}},
		{"random-factored-12x16", func(rng *rand.Rand) (PsiOperator, error) {
			f, err := gen.RandomFactored(12, 16, 2, 3, rng)
			if err != nil {
				return nil, err
			}
			return NewFactoredSet(f.Q)
		}},
	}
}

// midRunX returns the uniform dual point at which λ_max(Ψ(x)) is half
// the decision threshold K at ε = 0.2: the middle of the range the
// oracles exponentiate over a run.
func midRunX(tb testing.TB, set PsiOperator) []float64 {
	tb.Helper()
	x := make([]float64, set.N())
	for i := range x {
		x[i] = 1
	}
	lam, err := eigen.LanczosMax(func(in, out []float64) { set.ApplyPsi(x, in, out) }, set.Dim(), eigen.LanczosOpts{MaxIter: 256, Tol: 1e-12})
	if err != nil {
		tb.Fatal(err)
	}
	prm, err := ParamsFor(set.N(), set.Dim(), 0.2)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range x {
		x[i] = 0.5 * prm.K / lam
	}
	return x
}

// perRowRatios is the per-row form of the operator oracles' ratio
// computation, independent of the loaded-coefficient block path: one
// ExpMVInto per start vector (rows of starts, or the standard basis
// when starts is nil) over the vector ApplyPsi with an explicit ×½,
// each row rescaled to the common maximum log-scale, then the trace
// estimate and ExpDots numerators.
func perRowRatios(set PsiOperator, x []float64, starts *matrix.Dense, rows int, normHalf, tol float64) ([]float64, float64) {
	m := set.Dim()
	half := func(in, out []float64) {
		set.ApplyPsi(x, in, out)
		for i := range out {
			out[i] *= 0.5
		}
	}
	s := matrix.New(rows, m)
	logs := make([]float64, rows)
	for r := range logs {
		v := make([]float64, m)
		if starts != nil {
			copy(v, starts.Row(r))
		} else {
			v[r] = 1
		}
		logs[r] = expm.ExpMVInto(s.Row(r), half, v, normHalf, tol, nil)
	}
	maxLog := logs[0]
	for _, l := range logs[1:] {
		if l > maxLog {
			maxLog = l
		}
	}
	for r, l := range logs {
		matrix.VecScale(s.Row(r), math.Exp(l-maxLog), s.Row(r))
	}
	trEst := sumSquares(s.Data)
	ratios := make([]float64, set.N())
	set.ExpDots(ratios, s)
	for i := range ratios {
		ratios[i] /= trEst
	}
	return ratios, 2*maxLog + math.Log(trEst)
}

func requireSameRatios(t *testing.T, what string, got []float64, gotLog float64, want []float64, wantLog float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: ratio %d is %v, per-row form %v", what, i, got[i], want[i])
		}
	}
	if math.Float64bits(gotLog) != math.Float64bits(wantLog) {
		t.Fatalf("%s: log-trace %v, per-row form %v", what, gotLog, wantLog)
	}
}

// Both operator oracles advance their chains as one lockstep block;
// every ratio and the log-trace must be bitwise what the per-row chains
// give. The oracles share one workspace and run in turn, so the second
// of each pair restores the other's stashed bundle and regrows its
// block to a different width.
func TestOperatorRatiosBlockMatchesPerRow(t *testing.T) {
	for _, fam := range opFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			set, err := fam.build(rand.New(rand.NewPCG(71, 72)))
			if err != nil {
				t.Fatal(err)
			}
			x := midRunX(t, set)
			ws := work.New()
			for round := 0; round < 2; round++ {
				jl := newOpJLOracle(set, 0.2, 9, nil, ws)
				if err := jl.init(x); err != nil {
					t.Fatal(err)
				}
				for call := 0; call < 2; call++ {
					r, info, err := jl.ratios()
					if err != nil {
						t.Fatal(err)
					}
					want, wantLog := perRowRatios(set, x, jl.jl.M, jl.rows, 0.55*jl.lambdaEst+0.5, jl.tol)
					requireSameRatios(t, "jl", r, info.LogTrW, want, wantLog)
				}
				jl.release()

				ex := newOpExactOracle(set, 9, nil, ws)
				if err := ex.init(x); err != nil {
					t.Fatal(err)
				}
				r, info, err := ex.ratios()
				if err != nil {
					t.Fatal(err)
				}
				want, wantLog := perRowRatios(set, x, nil, set.Dim(), 0.55*ex.lambdaEst+0.5, 1e-12)
				requireSameRatios(t, "exact", r, info.LogTrW, want, wantLog)
				ex.release()
			}
		})
	}
}

// BenchmarkOperatorRatios times one ratios call of each operator oracle
// on each sparse-solve family at a mid-run dual point: the Lanczos
// refresh, the lockstep exp(Ψ/2) block, and the ExpDots numerators.
func BenchmarkOperatorRatios(b *testing.B) {
	for _, fam := range opFamilies() {
		set, err := fam.build(rand.New(rand.NewPCG(71, 72)))
		if err != nil {
			b.Fatal(err)
		}
		x := midRunX(b, set)
		oracles := []struct {
			name string
			o    expOracle
		}{
			{"exact", newOpExactOracle(set, 9, nil, work.New())},
			{"jl", newOpJLOracle(set, 0.2, 9, nil, work.New())},
		}
		for _, oc := range oracles {
			b.Run(fam.name+"/"+oc.name, func(b *testing.B) {
				if err := oc.o.init(x); err != nil {
					b.Fatal(err)
				}
				defer oc.o.release()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := oc.o.ratios(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// LambdaMaxPsi loads Ψ(x) once and runs its Lanczos on the k = 1 block
// apply: λ must be bitwise what the vector ApplyPsi gives, and the
// allocations beyond Lanczos's own must not grow with the Krylov depth
// (the vector ApplyPsi allocates its scratch on every apply).
func TestLambdaMaxPsiLoadsOnce(t *testing.T) {
	for _, fam := range opFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			set, err := fam.build(rand.New(rand.NewPCG(71, 72)))
			if err != nil {
				t.Fatal(err)
			}
			x := midRunX(t, set)
			opts := func() eigen.LanczosOpts {
				return eigen.LanczosOpts{MaxIter: 256, Tol: 1e-12, Rng: rand.New(rand.NewPCG(0xcafe, 0xf00d))}
			}
			applies := 0
			want, err := eigen.LanczosMax(func(in, out []float64) {
				applies++
				set.ApplyPsi(x, in, out)
			}, set.Dim(), opts())
			if err != nil {
				t.Fatal(err)
			}
			got, err := LambdaMaxPsi(set, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LambdaMaxPsi = %v, ApplyPsi Lanczos %v", got, want)
			}
			if applies < 8 {
				t.Fatalf("Lanczos ran %d applies; the allocation check needs a deeper basis", applies)
			}
			coef := make([]float64, set.PsiCoefLen())
			set.LoadPsi(x, coef)
			tmp := make([]float64, set.PsiScratchLen())
			lanczosOwn := testing.AllocsPerRun(5, func() {
				if _, err := eigen.LanczosMax(func(in, out []float64) { set.ApplyPsiBlock(coef, in, out, tmp, 1) }, set.Dim(), opts()); err != nil {
					t.Fatal(err)
				}
			})
			total := testing.AllocsPerRun(5, func() {
				if _, err := LambdaMaxPsi(set, x); err != nil {
					t.Fatal(err)
				}
			})
			if extra := total - lanczosOwn; extra > 2 {
				t.Errorf("LambdaMaxPsi allocates %.0f beyond Lanczos's own %.0f over %d applies, want at most 2", extra, lanczosOwn, applies)
			}
		})
	}
}

// The oracle-owned form of LambdaMaxPsi (the best-snapshot check, warm
// starts and mixed caps) returns LambdaMaxPsi's bits and, once the
// oracle is warm, allocates nothing — on dense sets (pooled Ψ and
// eigenvalue scratch) and on every operator family (the oracle's own
// loaded coefficients and Krylov basis). It runs before init, as warm
// starts do, and leaves the oracle's ratios bitwise a fresh oracle's.
func TestLambdaMaxAtZeroAlloc(t *testing.T) {
	type fam struct {
		name  string
		build func(*rand.Rand) (ConstraintSet, []float64, error)
	}
	fams := []fam{{"dense-8x10", func(rng *rand.Rand) (ConstraintSet, []float64, error) {
		set, err := NewDenseSet(gen.RandomDense(8, 10, 0, rng).A)
		x := make([]float64, 8)
		for i := range x {
			x[i] = 0.1 + rng.Float64()
		}
		return set, x, err
	}}}
	for _, f := range opFamilies() {
		fams = append(fams, fam{f.name, func(rng *rand.Rand) (ConstraintSet, []float64, error) {
			set, err := f.build(rng)
			if err != nil {
				return nil, nil, err
			}
			return set, midRunX(t, set), nil
		}})
	}
	for _, f := range fams {
		t.Run(f.name, func(t *testing.T) {
			set, x, err := f.build(rand.New(rand.NewPCG(73, 74)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := LambdaMaxPsi(set, x)
			if err != nil {
				t.Fatal(err)
			}
			o, err := buildOracle(set, 0.2, Options{}, work.New())
			if err != nil {
				t.Fatal(err)
			}
			defer o.release()
			for k := 0; k < 2; k++ {
				got, err := o.lambdaMaxAt(x)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("call %d: lambdaMaxAt = %v, LambdaMaxPsi %v", k, got, want)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := o.lambdaMaxAt(x); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm lambdaMaxAt allocates %.1f per call, want 0", allocs)
			}
			// The oracle's own ratios are a fresh oracle's.
			fresh, err := buildOracle(set, 0.2, Options{}, work.New())
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.release()
			for _, orc := range []expOracle{o, fresh} {
				if err := orc.init(x); err != nil {
					t.Fatal(err)
				}
			}
			got, _, err := o.ratios()
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := fresh.ratios()
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("ratio %d after lambdaMaxAt = %v, fresh oracle %v", i, got[i], ref[i])
				}
			}
		})
	}
}
