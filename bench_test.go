// Benchmark harness: one testing.B target per paper experiment table
// (E1–E16; `go run ./cmd/psdpbench -list` names them and README's
// Benchmarks section says how to run them). Each benchmark re-runs the
// corresponding experiment kernel and reports its headline quantities
// as custom metrics, so `go test -bench=. -benchmem` regenerates every
// number the reproduction reports. The full human-readable tables come
// from `go run ./cmd/psdpbench`.
package psdp_test

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	psdp "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/parallel"
)

var benchCfg = experiments.Config{Quick: true, Seed: 2012}

// runExperiment executes a registered experiment once per benchmark
// iteration and reports the numeric cells of its last row as metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r := experiments.ByID(id)
	if r == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = r.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl == nil || len(tbl.Rows) == 0 {
		return
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	for i, cell := range last {
		if v, err := strconv.ParseFloat(cell, 64); err == nil && !math.IsInf(v, 0) {
			b.ReportMetric(v, tbl.Columns[i])
		}
	}
}

func BenchmarkE1IterationsVsN(b *testing.B)   { runExperiment(b, "E1") }
func BenchmarkE2IterationsVsEps(b *testing.B) { runExperiment(b, "E2") }
func BenchmarkE3WidthSweep(b *testing.B)      { runExperiment(b, "E3") }
func BenchmarkE4Optimize(b *testing.B)        { runExperiment(b, "E4") }
func BenchmarkE5TaylorDegree(b *testing.B)    { runExperiment(b, "E5") }
func BenchmarkE6BigDotExp(b *testing.B)       { runExperiment(b, "E6") }
func BenchmarkE7WorkDepth(b *testing.B)       { runExperiment(b, "E7") }
func BenchmarkE8MMWRegret(b *testing.B)       { runExperiment(b, "E8") }
func BenchmarkE9Ellipse(b *testing.B)         { runExperiment(b, "E9") }
func BenchmarkE10DiagonalLP(b *testing.B)     { runExperiment(b, "E10") }
func BenchmarkE11IterFormulas(b *testing.B)   { runExperiment(b, "E11") }
func BenchmarkE12Parallel(b *testing.B)       { runExperiment(b, "E12") }
func BenchmarkE13Bucketing(b *testing.B)      { runExperiment(b, "E13") }
func BenchmarkE14SketchAblation(b *testing.B) { runExperiment(b, "E14") }
func BenchmarkE15Trajectory(b *testing.B)     { runExperiment(b, "E15") }
func BenchmarkE16Mixed(b *testing.B)          { runExperiment(b, "E16") }

// --- microbenchmarks of the solver kernels themselves ---

// BenchmarkDecisionDense measures one full Algorithm 3.1 run on the
// dense exact oracle at the decision point OPT = 1.
func BenchmarkDecisionDense(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	inst, err := gen.OrthogonalRankOne(12, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	set, err := core.NewDenseSet(inst.A)
	if err != nil {
		b.Fatal(err)
	}
	scaled := set.WithScale(inst.OPT)
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		dr, err := core.DecisionPSDP(scaled, 0.2, core.Options{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		iters = dr.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// BenchmarkDecisionFactoredJL measures the Theorem 4.1 fast path on a
// sparse factored instance.
func BenchmarkDecisionFactoredJL(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	inst, err := gen.RandomFactored(24, 96, 2, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	fset, err := core.NewFactoredSet(inst.Q)
	if err != nil {
		b.Fatal(err)
	}
	minTr := math.Inf(1)
	for i := 0; i < fset.N(); i++ {
		if tr := fset.Trace(i); tr < minTr {
			minTr = tr
		}
	}
	scaled := fset.WithScale(2 / minTr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecisionPSDP(scaled, 0.25, core.Options{Seed: 9, SketchEps: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fset.NNZ()), "q")
}

// BenchmarkOracleDense isolates one dense exact oracle call
// (eigendecomposition + n dot products), the per-iteration cost of the
// reference path.
func BenchmarkOracleDense(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	inst := gen.RandomDense(16, 32, 8, rng)
	set, err := core.NewDenseSet(inst.A)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jl, exact, err := core.CompareOracles(set, mustFactor(b, set), 0.25, 7, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = jl, exact
	}
}

func mustFactor(b *testing.B, set *core.DenseSet) *core.FactoredSet {
	b.Helper()
	f, err := set.Factorize(1e-12)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkMaximizeEndToEnd measures the full public pipeline.
func BenchmarkMaximizeEndToEnd(b *testing.B) {
	set, err := psdp.NewDenseSet([]*psdp.Dense{
		psdp.Diag([]float64{0.5, 0.25, 0.1}),
		psdp.Diag([]float64{0.25, 0.5, 0.3}),
		psdp.Diag([]float64{0.1, 0.2, 0.5}),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		sol, err := psdp.Maximize(set, 0.1, psdp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gap = sol.Gap()
	}
	b.ReportMetric(gap, "certified-gap")
}

// BenchmarkParallelFor sanity-checks the fork-join substrate's
// throughput (element updates per op).
func BenchmarkParallelFor(b *testing.B) {
	buf := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.ForBlock(len(buf), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] += 1
			}
		})
	}
}
