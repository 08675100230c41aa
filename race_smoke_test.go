// Race smoke harness: a short, -race-friendly pass that drives every
// fork-join consumer (blocked matrix kernels, both oracles, Lanczos,
// Cholesky, the full decision loop) at a GOMAXPROCS high enough to
// force real goroutine forking. The tier-2 check `go test -race ./...`
// (or `make race`) runs the whole suite under the race detector; this
// file guarantees the hot paths are exercised with concurrency even on
// single-core CI boxes.
package psdp_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	psdp "repro"
	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func TestRaceSmokeKernels(t *testing.T) {
	orig := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(orig)

	rng := rand.New(rand.NewPCG(5, 6))
	n := 64
	a := matrix.New(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	a.Symmetrize()
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}

	// Force forked execution: tiny grains on every primitive.
	parallel.ForBlock(len(a.Data), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = a.Data[i]
		}
	})
	_ = parallel.SumBlocks(len(a.Data), 1, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += a.Data[i]
		}
		return s
	})
	_ = parallel.MaxFloat(len(a.Data), func(i int) float64 { return a.Data[i] })

	// Blocked kernels and their consumers.
	_ = matrix.MulAB(a, a, nil)
	_ = matrix.SymMulAB(a, a, nil)
	_ = matrix.Gram(a, nil)
	_ = matrix.CongruenceDiag(a, v, nil)
	// DotMany forks only past WorkGrain(64²) = 8 constraints.
	as := make([]*matrix.Dense, 16)
	for i := range as {
		as[i] = a
	}
	out := make([]float64, len(as))
	matrix.DotMany(out, as, 1, a)
	// LinComb forks once its n² entries pass WorkGrain(2·terms): from
	// five terms on at n = 64.
	dst := matrix.New(n, n)
	coeffs := make([]float64, 8)
	for i := range coeffs {
		coeffs[i] = 1 / float64(i+1)
	}
	matrix.LinComb(dst, coeffs, as[:len(coeffs)])
	_ = a.MulVec(v)
	_ = matrix.VecDot(v, v)

	// PivotedCholesky's column sweep forks once n·(pivots+1) passes
	// WorkGrain's floor: past 81 pivots at n = 400, so the factor has
	// rank 96.
	b := matrix.New(400, 96)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	spd := matrix.Gram(b, nil) // PSD by construction
	if _, rank, err := chol.PivotedCholeskyWS(nil, spd, 1e-12); err != nil || rank != b.C {
		t.Fatalf("PivotedCholesky: rank %d, err %v; want rank %d", rank, err, b.C)
	}
}

func TestRaceSmokeDecision(t *testing.T) {
	orig := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(orig)

	rng := rand.New(rand.NewPCG(7, 8))
	inst, err := gen.OrthogonalRankOne(8, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := psdp.NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psdp.Decision(set.WithScale(inst.OPT), 0.25, psdp.Options{Seed: 1, MaxIter: 40}); err != nil {
		t.Fatal(err)
	}

	finst, err := gen.RandomFactored(8, 16, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	fset, err := psdp.NewFactoredSet(finst.Q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psdp.Decision(fset.WithScale(4), 0.3, psdp.Options{Seed: 2, MaxIter: 25, SketchEps: 0.4}); err != nil {
		t.Fatal(err)
	}

	// Sparse representation: the stacked Ψ·v accumulation, per-row ExpMV
	// fan-out, and batched quadratic forms all under forced forking.
	sinst, err := gen.SparseEdgePacking(graph.Cycle(16))
	if err != nil {
		t.Fatal(err)
	}
	sset, err := psdp.NewSparseSet(sinst.A)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psdp.Decision(sset.WithScale(0.2), 0.3, psdp.Options{Seed: 3, MaxIter: 25, SketchEps: 0.4}); err != nil {
		t.Fatal(err)
	}
	if _, err := psdp.Decision(sset.WithScale(0.2), 0.3, psdp.Options{Seed: 3, MaxIter: 25, Oracle: psdp.OracleFactoredExact}); err != nil {
		t.Fatal(err)
	}
}
