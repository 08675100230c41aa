package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sketch"
	"repro/internal/sparse"
)

// The kernel probes time the public functions of the kernel layers on
// the shapes the solve workloads use. They run in every traced run,
// after the timed window. Operation counts and bytes moved are computed
// from array sizes, not measured.

// probeBatches is how many timed batches a probe runs; the reported
// per-call time is the median batch's.
const probeBatches = 7

// probeBatch is the least time one batch runs.
const probeBatch = 2 * time.Millisecond

// timePerCall returns the median per-call time of f over the batches.
func timePerCall(f func()) time.Duration {
	f() // warm
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if d := time.Since(t0); d >= probeBatch {
			break
		}
		reps *= 2
	}
	per := make([]time.Duration, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		per[b] = time.Since(t0) / time.Duration(reps)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[len(per)/2]
}

// denseProbeDims are the constraint dimensions of dense-solve's calls.
func denseProbeDims() []int {
	seen := map[int]bool{}
	var dims []int
	rng := rand.New(rand.NewPCG(1, 1))
	for _, c := range denseSolve().classes {
		set, _, err := c.gen(rng)
		if err == nil && !seen[set.Dim()] {
			seen[set.Dim()] = true
			dims = append(dims, set.Dim())
		}
	}
	sort.Ints(dims)
	return dims
}

// probeDense times the dense kernels at each of dense-solve's
// dimensions. Rates are total computed flops over total time across
// the dimensions; times and computed counts are summed over one call
// at each dimension.
func probeDense(rep *report, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xd3))
	var mulFlop, symFlop, gramFlop float64
	var mulT, symT, gramT, eigT, expT time.Duration
	var mulB, symB, gramB, eigB, expB float64
	for _, m := range denseProbeDims() {
		a := gen.RandomPSD(m, m, rng)
		b := gen.RandomPSD(m, m, rng)
		out := matrix.New(m, m)
		f := float64(m)
		word := 8.0
		mulT += timePerCall(func() { matrix.MulABInto(out, a, b, nil) })
		mulFlop += 2 * f * f * f
		mulB += 3 * f * f * word
		symT += timePerCall(func() { matrix.SymMulABInto(out, a, b, nil) })
		symFlop += f * f * f // upper triangle only
		symB += 3 * f * f * word
		gramT += timePerCall(func() { matrix.GramInto(out, a, nil) })
		gramFlop += f * f * f
		gramB += 2 * f * f * word
		eigT += timePerCall(func() { _, _ = eigen.SymEigen(a) })
		eigB += (2*f*f + f) * word // matrix in, vectors and values out
		expT += timePerCall(func() { _, _ = expm.ExpSym(a) })
		expB += 2 * f * f * word
	}
	gf := func(flop float64, t time.Duration) float64 { return flop / float64(max(t.Nanoseconds(), 1)) }
	rep.set("matrix.mulab_gflops", gf(mulFlop, mulT), "Gflop/s")
	rep.set("matrix.symmulab_gflops", gf(symFlop, symT), "Gflop/s")
	rep.set("matrix.gram_gflops", gf(gramFlop, gramT), "Gflop/s")
	rep.set("eigen.symeig_ms", ms(eigT), "ms")
	rep.set("expm.expsym_ms", ms(expT), "ms")
	rep.set("matrix.mulab_computed_flop", mulFlop, "flop")
	rep.set("matrix.mulab_computed_bytes", mulB, "B")
	rep.set("matrix.symmulab_computed_flop", symFlop, "flop")
	rep.set("matrix.symmulab_computed_bytes", symB, "B")
	rep.set("matrix.gram_computed_flop", gramFlop, "flop")
	rep.set("matrix.gram_computed_bytes", gramB, "B")
	rep.set("eigen.symeig_computed_bytes", eigB, "B")
	rep.set("expm.expsym_computed_bytes", expB, "B")
}

// probeSparse times the sparse, Lanczos, ExpMV and sketch kernels on
// one instance of each of sparse-solve's classes, built from seed.
func probeSparse(rep *report, seed uint64) error {
	w := sparseSolve()
	ops, err := w.generate(seed, 1)
	if err != nil {
		return err
	}
	var mvT, qfT, lzT, evT, jlT time.Duration
	var mvNNZ, qfNNZ, mvB, qfB, jlB float64
	rng := rand.New(rand.NewPCG(seed, 0x5b))
	for _, op := range ops {
		set := op.set
		dim := set.Dim()
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		out := make([]float64, dim)
		if ss, ok := set.(*core.SparseSet); ok {
			for _, a := range ss.A {
				nnz := float64(a.NNZ())
				mvT += timePerCall(func() { a.SymMulVecInto(out, v) })
				mvNNZ += nnz
				mvB += nnz*16 + 2*float64(dim)*8 // value+index per entry, v in, out
			}
			qo := make([]float64, len(ss.A))
			t := timePerCall(func() { sparse.QuadForms(qo, ss.A, 1, v) })
			qfT += t
			for _, a := range ss.A {
				qfNNZ += float64(a.NNZ())
				qfB += float64(a.NNZ()) * 16
			}
			qfB += float64(dim) * 8
		}
		// Ψ(x) at a point where λ_max(Ψ) sits at the decision loop's
		// exit threshold K, the largest norm the oracle exponentiates.
		x := make([]float64, set.N())
		for i := range x {
			x[i] = 1
		}
		apply := func(in, o []float64) { set.ApplyPsi(x, in, o) }
		lam, err := eigen.LanczosMax(apply, dim, eigen.LanczosOpts{MaxIter: 256, Tol: 1e-12})
		if err != nil {
			return err
		}
		prm, err := core.ParamsFor(set.N(), dim, op.class.eps)
		if err != nil {
			return err
		}
		for i := range x {
			x[i] = prm.K / lam
		}
		lzT += timePerCall(func() {
			_, _ = eigen.LanczosMax(apply, dim, eigen.LanczosOpts{MaxIter: 32, Tol: 1e-6})
		})
		half := func(in, o []float64) {
			set.ApplyPsi(x, in, o)
			matrix.VecScale(o, 0.5, o)
		}
		var sc expm.MVScratch
		ev := make([]float64, dim)
		evT += timePerCall(func() { expm.ExpMVInto(ev, half, v, prm.K/2*1.01, 1e-12, &sc) })
		k := sketch.Rows(dim, 0.2)
		jl, err := sketch.New(k, dim, rng)
		if err != nil {
			return err
		}
		jlT += timePerCall(func() { jl.Refill(rng) })
		jlB += float64(k*dim) * 8
	}
	per := func(t time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(t.Nanoseconds()) / n
	}
	rep.set("sparse.symmv_ns_per_nnz", per(mvT, mvNNZ), "ns")
	rep.set("sparse.quadforms_ns_per_nnz", per(qfT, qfNNZ), "ns")
	rep.set("sparse.symmv_computed_bytes", mvB, "B")
	rep.set("sparse.quadforms_computed_bytes", qfB, "B")
	rep.set("eigen.lanczos_ms", ms(lzT), "ms")
	rep.set("expm.expmv_ms", ms(evT), "ms")
	rep.set("sketch.jl_refill_us", float64(jlT.Nanoseconds())/1e3, "us")
	rep.set("sketch.jl_computed_bytes", jlB, "B")
	return nil
}

// probeKernels runs both kernel probes.
func probeKernels(rep *report, seed uint64) error {
	probeDense(rep, seed)
	return probeSparse(rep, seed)
}
