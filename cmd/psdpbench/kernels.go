package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	psdp "repro"
	"repro/internal/benchfile"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Kernel benchmark mode (-section kernels): times each dense hot-path
// kernel at GOMAXPROCS=1 and GOMAXPROCS=N against a pure sequential
// reference and merges the results into BENCH_psdp.json, the perf
// baseline later scaling changes are measured against.

// kernelResult is one (kernel, size) measurement.
type kernelResult struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	// NsSeq is ns/op of the straightforward sequential reference.
	NsSeq float64 `json:"ns_seq"`
	// NsPar1 is ns/op of the blocked kernel at GOMAXPROCS=1.
	NsPar1 float64 `json:"ns_par_p1"`
	// NsParN is ns/op of the blocked kernel at GOMAXPROCS=Procs.
	NsParN float64 `json:"ns_par_pN"`
	// Speedup is NsSeq / NsParN.
	Speedup float64 `json:"speedup"`
	// AllocsPerOp and BytesPerOp are heap allocations of the blocked
	// kernel at GOMAXPROCS=1 (the regime the workspace refactor pins:
	// serial fast paths fire, fork closures are never built).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// decisionResult is one end-to-end Decision-call measurement: the
// steady-state cost of a full Algorithm 3.1 run with a warm shared
// workspace, plus its per-iteration allocation rate — the headline
// number of the zero-allocation workspace refactor.
type decisionResult struct {
	Case        string  `json:"case"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	Iterations  int     `json:"iterations"`
	NsPerCall   float64 `json:"ns_per_call"`
	AllocsPerOp float64 `json:"allocs_per_call"`
	BytesPerOp  float64 `json:"bytes_per_call"`
	// AllocsPerIter is AllocsPerOp spread over the run's iterations:
	// ~0 on the dense path (all per-call setup), small on the JL path.
	AllocsPerIter float64 `json:"allocs_per_iter"`
}

// benchMeta records the environment a kernel report was measured in, so
// numbers in a committed BENCH_psdp.json are interpretable on another
// machine: the parallel regime (GOMAXPROCS/NumCPU), the toolchain, and
// which inner-kernel implementation was active behind the dispatch seam
// ("go-tiled" unless a build-tagged SIMD backend installed itself).
type benchMeta struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	DispatchPath string `json:"dispatch_path"`
}

// allocsPerOp measures heap allocations and bytes per invocation of op,
// at the current GOMAXPROCS, via MemStats deltas (the same counters
// testing.AllocsPerRun reads).
func allocsPerOp(op func(), iters int) (allocs, bytes float64) {
	if iters < 1 {
		iters = 1
	}
	op() // warm-up: pools fill, lazy state builds
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
}

// benchKernel describes one kernel: a setup returning (parallel op,
// sequential reference op) closures for size n.
type benchKernel struct {
	name  string
	build func(n int, rng *rand.Rand) (par, seq func())
}

// Benchmark sinks: every op stores its result here so the compiler
// cannot dead-code-eliminate any part of either variant (reductions
// with discarded results otherwise measure as faster than they are).
var (
	sinkF float64
	sinkM *matrix.Dense
	sinkV []float64
)

func kernelTable() []benchKernel {
	return []benchKernel{
		{name: "Gram", build: func(n int, rng *rand.Rand) (func(), func()) {
			q := randMat(n, n/4+1, rng)
			dst := matrix.New(n, n)
			ref := matrix.New(n, n)
			return func() { matrix.GramInto(dst, q, nil); sinkM = dst },
				func() { seqGramInto(ref, q); sinkM = ref }
		}},
		{name: "SymMulAB", build: func(n int, rng *rand.Rand) (func(), func()) {
			// B·B is symmetric, the shape of every Horner step in
			// TaylorExpPSD (a polynomial in B times B).
			b := randSym(n, rng)
			dst := matrix.New(n, n)
			ref := matrix.New(n, n)
			return func() { matrix.SymMulABInto(dst, b, b, nil); sinkM = dst },
				func() { seqMulABInto(ref, b, b); sinkM = ref }
		}},
		{name: "MulAB", build: func(n int, rng *rand.Rand) (func(), func()) {
			a := randMat(n, n, rng)
			b := randMat(n, n, rng)
			dst := matrix.New(n, n)
			ref := matrix.New(n, n)
			return func() { matrix.MulABInto(dst, a, b, nil); sinkM = dst },
				func() { seqMulABInto(ref, a, b); sinkM = ref }
		}},
		{name: "CongruenceDiag", build: func(n int, rng *rand.Rand) (func(), func()) {
			v := randMat(n, n, rng)
			d := randVec(n, rng)
			dst := matrix.New(n, n)
			ref := matrix.New(n, n)
			return func() { matrix.CongruenceDiagInto(dst, v, d, nil); sinkM = dst },
				func() { seqCongruenceDiagInto(ref, v, d); sinkM = ref }
		}},
		{name: "DotMany", build: func(n int, rng *rand.Rand) (func(), func()) {
			// n constraints of dimension ~sqrt-scaled so the batch is the
			// hot axis, as in the dense oracle's ratio sweep.
			m := 64
			as := make([]*matrix.Dense, n)
			for i := range as {
				as[i] = randMat(m, m, rng)
			}
			p := randMat(m, m, rng)
			out := make([]float64, n)
			return func() { matrix.DotMany(out, as, 1.25, p); sinkV = out },
				func() { seqDotMany(out, as, 1.25, p); sinkV = out }
		}},
		{name: "LinComb", build: func(n int, rng *rand.Rand) (func(), func()) {
			m := 64
			k := n / 8
			if k < 1 {
				k = 1
			}
			mats := make([]*matrix.Dense, k)
			for i := range mats {
				mats[i] = randMat(m, m, rng)
			}
			coeffs := randVec(k, rng)
			dst := matrix.New(m, m)
			return func() { matrix.LinComb(dst, coeffs, mats); sinkM = dst },
				func() { seqLinComb(dst, coeffs, mats); sinkM = dst }
		}},
		{name: "MulVec", build: func(n int, rng *rand.Rand) (func(), func()) {
			m := randMat(n, n, rng)
			v := randVec(n, rng)
			dst := make([]float64, n)
			return func() { m.MulVecTo(dst, v); sinkV = dst },
				func() { seqMulVec(dst, m, v); sinkV = dst }
		}},
		{name: "VecDot", build: func(n int, rng *rand.Rand) (func(), func()) {
			// Reduction over n² entries to give the block tree real work.
			a := randVec(n*n, rng)
			b := randVec(n*n, rng)
			return func() { sinkF = matrix.VecDot(a, b) }, func() { sinkF = seqDot(a, b) }
		}},
	}
}

// sparseKernelTable times the general-sparse symmetric kernels at two
// nnz densities (~4 and ~16 stored entries per row): the n-vertex
// symmetric matvec (SymMV), the stacked multi-matrix accumulation
// Ψ(x)·v (AccumulateScaled, 8 constraints), and the batched
// per-constraint quadratic forms (QuadForms). Sequential references are
// plain loops over the same canonical entry order.
func sparseKernelTable() []benchKernel {
	var ks []benchKernel
	for _, deg := range []int{4, 16} {
		deg := deg
		ks = append(ks,
			benchKernel{name: fmt.Sprintf("SymMV-d%d", deg), build: func(n int, rng *rand.Rand) (func(), func()) {
				a := randSymCSC(n, deg, rng)
				v := randVec(n, rng)
				dst := make([]float64, n)
				ref := make([]float64, n)
				return func() { a.SymMulVecInto(dst, v); sinkV = dst },
					func() { seqSymMV(ref, a, v); sinkV = ref }
			}},
			benchKernel{name: fmt.Sprintf("AccumulateScaled-d%d", deg), build: func(n int, rng *rand.Rand) (func(), func()) {
				const nc = 8
				as := make([]*sparse.CSC, nc)
				for i := range as {
					as[i] = randSymCSC(n, deg/2+1, rng)
				}
				st, err := sparse.NewStack(as)
				if err != nil {
					panic(err)
				}
				x := randVec(nc, rng)
				v := randVec(n, rng)
				dst := make([]float64, n)
				ref := make([]float64, n)
				return func() { st.AccumulateScaled(dst, x, v); sinkV = dst },
					func() { seqAccumulateScaled(ref, st, x, v); sinkV = ref }
			}},
			benchKernel{name: fmt.Sprintf("QuadForms-d%d", deg), build: func(n int, rng *rand.Rand) (func(), func()) {
				const nc = 16
				as := make([]*sparse.CSC, nc)
				for i := range as {
					as[i] = randSymCSC(n, deg/2+1, rng)
				}
				v := randVec(n, rng)
				out := make([]float64, nc)
				return func() { sparse.QuadForms(out, as, 1.5, v); sinkV = out },
					func() { seqQuadForms(out, as, 1.5, v); sinkV = out }
			}})
	}
	return ks
}

// Kernel gate thresholds (see gateKernels). gateMinN is where the
// cache-blocked tiles become load-bearing.
const (
	gateMaxRatio = 1.05
	gateMinN     = 256
)

// runKernelBench measures every kernel at every size, merges the meta,
// sizes, kernels and decision sections into path, and, when baseline
// is non-empty, gates the fresh kernels against that file's.
func runKernelBench(path, baseline string, sizes []int, seed uint64) error {
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)
	procs := runtime.NumCPU()
	if procs < origProcs {
		procs = origProcs
	}
	meta := benchMeta{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   procs,
		NumCPU:       runtime.NumCPU(),
		DispatchPath: matrix.DispatchPath(),
	}

	// Fail fast on a baseline from another machine, or an unwritable or
	// malformed output file, rather than after minutes of measurement.
	var base []kernelResult
	if baseline != "" {
		baseMeta, kernels, err := loadKernels(baseline)
		if err != nil {
			return err
		}
		if err := sameMachine(baseMeta, meta); err != nil {
			return fmt.Errorf("%s: %w", baseline, err)
		}
		base = kernels
	}
	if err := benchfile.Merge(path, nil); err != nil {
		return err
	}

	var results []kernelResult
	for _, k := range append(kernelTable(), sparseKernelTable()...) {
		for _, n := range sizes {
			rng := rand.New(rand.NewPCG(seed, uint64(n)))
			par, seq := k.build(n, rng)
			res := kernelResult{Kernel: k.name, N: n}
			// Interleave the three variants round-robin and keep per-variant
			// minima, so slow drift (GC, noisy neighbours, frequency
			// scaling) hits all variants equally instead of whichever ran
			// last.
			ts := timeOps([]timedOp{
				{op: seq},
				{op: par, procs: 1},
				{op: par, procs: procs},
			})
			runtime.GOMAXPROCS(origProcs)
			res.NsSeq, res.NsPar1, res.NsParN = ts[0], ts[1], ts[2]
			if res.NsParN > 0 {
				res.Speedup = res.NsSeq / res.NsParN
			}
			setProcs(1)
			res.AllocsPerOp, res.BytesPerOp = allocsPerOp(par, 16)
			runtime.GOMAXPROCS(origProcs)
			results = append(results, res)
			fmt.Printf("%-16s n=%-5d seq %12.0f ns  par@1 %12.0f ns  par@%d %12.0f ns  speedup %.2fx  %6.1f allocs/op %9.0f B/op\n",
				k.name, n, res.NsSeq, res.NsPar1, procs, res.NsParN, res.Speedup, res.AllocsPerOp, res.BytesPerOp)
		}
	}
	err := benchfile.Merge(path, map[string]any{
		"meta":     meta,
		"sizes":    sizes,
		"kernels":  results,
		"decision": runDecisionBench(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (meta, sizes, kernels, decision sections)\n", path)
	if baseline == "" {
		return nil
	}
	if failures := gateKernels(os.Stdout, base, results); failures > 0 {
		return fmt.Errorf("%d kernel gate failure(s) against %s", failures, baseline)
	}
	fmt.Printf("kernel gate: all kernels within %.2fx of %s at n >= %d, zero allocs/op\n",
		gateMaxRatio, baseline, gateMinN)
	return nil
}

// loadKernels reads the "meta" and "kernels" sections of a baseline
// report.
func loadKernels(path string) (benchMeta, []kernelResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchMeta{}, nil, err
	}
	var rep struct {
		Meta    benchMeta      `json:"meta"`
		Kernels []kernelResult `json:"kernels"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return benchMeta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Kernels) == 0 {
		return benchMeta{}, nil, fmt.Errorf("%s: no kernels section", path)
	}
	return rep.Meta, rep.Kernels, nil
}

// sameMachine refuses to gate against a baseline measured at another
// CPU count or GOMAXPROCS: ns/op from another parallel regime says
// nothing about this one.
func sameMachine(base, fresh benchMeta) error {
	if base.NumCPU != fresh.NumCPU || base.GOMAXPROCS != fresh.GOMAXPROCS {
		return fmt.Errorf("baseline measured at num_cpu %d / gomaxprocs %d, this run at num_cpu %d / gomaxprocs %d; re-record the baseline on this machine",
			base.NumCPU, base.GOMAXPROCS, fresh.NumCPU, fresh.GOMAXPROCS)
	}
	return nil
}

// gateKernels checks fresh kernel results against a baseline, writes
// one line per checked (kernel, n) to w, and returns the number of
// failures. Two rules:
//
//  1. Speed: at n >= gateMinN, GOMAXPROCS=1 ns/op may not exceed
//     gateMaxRatio times the baseline's.
//  2. Allocations: no kernel may allocate per op at GOMAXPROCS=1 unless
//     the baseline already records an allocation for the same
//     (kernel, n) — VecDot's one multi-block reduction closure is the
//     lone grandfathered case. MemStats deltas occasionally smear a
//     background allocation across the measured window, so fractional
//     values below 1 alloc/op count as zero.
//
// A kernel missing from the baseline is noted, not failed, so adding or
// renaming a kernel does not require regenerating the baseline in the
// same change.
func gateKernels(w io.Writer, base, cand []kernelResult) (failures int) {
	type key struct {
		kernel string
		n      int
	}
	ref := make(map[key]kernelResult, len(base))
	for _, k := range base {
		ref[key{k.Kernel, k.N}] = k
	}
	for _, k := range cand {
		b, ok := ref[key{k.Kernel, k.N}]
		if k.AllocsPerOp >= 1 && !(ok && b.AllocsPerOp >= 1) {
			failures++
			fmt.Fprintf(w, "FAIL %-18s n=%-5d %.1f allocs/op, want 0\n", k.Kernel, k.N, k.AllocsPerOp)
		}
		if k.N < gateMinN {
			continue
		}
		if !ok {
			fmt.Fprintf(w, "note %-18s n=%-5d has no baseline (new kernel or size)\n", k.Kernel, k.N)
			continue
		}
		ratio := k.NsPar1 / b.NsPar1
		status := "ok  "
		if b.NsPar1 > 0 && ratio > gateMaxRatio {
			failures++
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s %-18s n=%-5d %12.0f ns vs %12.0f ns baseline (%.2fx)\n",
			status, k.Kernel, k.N, k.NsPar1, b.NsPar1, ratio)
	}
	return failures
}

// runDecisionBench measures end-to-end Decision calls — dense and
// factored-JL — with a shared workspace, at GOMAXPROCS=1: wall time per
// call, heap allocations per call, and allocations amortized per MMW
// iteration. The dense per-iteration rate is ~0 by the workspace
// contract (all remaining allocations are per-call result assembly).
func runDecisionBench() []decisionResult {
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)
	setProcs(1)

	var out []decisionResult

	// Dense: random PSD constraints, fixed iteration budget so every
	// call costs the same.
	{
		rng := rand.New(rand.NewPCG(77, 78))
		inst := gen.RandomDense(32, 48, 8, rng)
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			panic(err)
		}
		scaled := set.WithScale(0.25)
		ws := psdp.NewWorkspace()
		const iters = 120
		opts := psdp.Options{Seed: 1, TheoryExact: true, MaxIter: iters, Workspace: ws}
		op := func() {
			if _, err := psdp.Decision(scaled, 0.25, opts); err != nil {
				panic(err)
			}
		}
		out = append(out, measureDecision("dense-exact", set.N(), set.Dim(), iters, op))
	}

	// Factored JL: sparse rank-2 factors through the sketched oracle.
	{
		rng := rand.New(rand.NewPCG(79, 80))
		inst, err := gen.RandomFactored(48, 96, 2, 4, rng)
		if err != nil {
			panic(err)
		}
		set, err := psdp.NewFactoredSet(inst.Q)
		if err != nil {
			panic(err)
		}
		scaled := set.WithScale(0.02)
		ws := psdp.NewWorkspace()
		const iters = 40
		opts := psdp.Options{Seed: 2, TheoryExact: true, MaxIter: iters, SketchEps: 0.4, Workspace: ws}
		op := func() {
			if _, err := psdp.Decision(scaled, 0.25, opts); err != nil {
				panic(err)
			}
		}
		out = append(out, measureDecision("factored-jl", set.N(), set.Dim(), iters, op))
	}

	// General sparse through the deterministic exact operator oracle:
	// an Erdős–Rényi edge-Laplacian packing workload. Steady-state
	// iterations allocate nothing (the sparse zero-alloc contract); the
	// reported allocs/call are per-call setup and result assembly.
	{
		rng := rand.New(rand.NewPCG(83, 84))
		g := graph.ErdosRenyi(64, 4.0/64, rng)
		inst, err := gen.SparseEdgePacking(g)
		if err != nil {
			panic(err)
		}
		set, err := psdp.NewSparseSet(inst.A)
		if err != nil {
			panic(err)
		}
		scaled := set.WithScale(0.1)
		ws := psdp.NewWorkspace()
		const iters = 40
		opts := psdp.Options{Seed: 3, Oracle: psdp.OracleFactoredExact, TheoryExact: true, MaxIter: iters, Workspace: ws}
		op := func() {
			if _, err := psdp.Decision(scaled, 0.25, opts); err != nil {
				panic(err)
			}
		}
		out = append(out, measureDecision("sparse-exact", set.N(), set.Dim(), iters, op))
	}
	return out
}

func measureDecision(name string, n, m, iters int, op func()) decisionResult {
	op() // warm the workspace
	const calls = 6
	start := time.Now()
	for i := 0; i < calls; i++ {
		op()
	}
	ns := float64(time.Since(start).Nanoseconds()) / calls
	allocs, bytes := allocsPerOp(op, calls)
	res := decisionResult{
		Case:          name,
		N:             n,
		M:             m,
		Iterations:    iters,
		NsPerCall:     ns,
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		AllocsPerIter: allocs / float64(iters),
	}
	fmt.Printf("decision %-12s n=%-3d m=%-3d iters=%-4d %12.0f ns/call %8.1f allocs/call %9.0f B/call %6.2f allocs/iter\n",
		name, n, m, iters, res.NsPerCall, allocs, bytes, res.AllocsPerIter)
	return res
}

// timedOp is one benchmark variant: op runs under GOMAXPROCS=procs
// (0 keeps the current setting).
type timedOp struct {
	op    func()
	procs int
}

// timeOps measures ns/op for each variant with interleaved rounds:
// iteration counts are calibrated per variant for a ~20ms round, then
// several rounds run round-robin across variants and the per-variant
// minimum is reported.
func timeOps(ops []timedOp) []float64 {
	const (
		roundBudget = 20 * time.Millisecond
		rounds      = 9
	)
	iters := make([]int, len(ops))
	for i, t := range ops {
		setProcs(t.procs)
		t.op() // warm up
		it := 1
		for {
			start := time.Now()
			for k := 0; k < it; k++ {
				t.op()
			}
			el := time.Since(start)
			if el >= roundBudget || it >= 1<<20 {
				break
			}
			next := int(float64(it) * float64(roundBudget) / float64(el+1) * 1.2)
			if next <= it {
				next = it * 2
			}
			it = next
		}
		iters[i] = it
	}
	best := make([]float64, len(ops))
	for r := 0; r < rounds; r++ {
		for k := 0; k < len(ops); k++ {
			// Alternate the visiting order between rounds so slow drift
			// does not systematically tax the later variants.
			i := k
			if r%2 == 1 {
				i = len(ops) - 1 - k
			}
			t := ops[i]
			setProcs(t.procs)
			start := time.Now()
			for it := 0; it < iters[i]; it++ {
				t.op()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(iters[i])
			if r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

func setProcs(p int) {
	if p > 0 {
		runtime.GOMAXPROCS(p)
	}
}

// --- sequential reference implementations (no fork-join, no blocks) ---

func seqGramInto(out, q *matrix.Dense) {
	n, k := q.R, q.C
	for i := 0; i < n; i++ {
		qi := q.Data[i*k : (i+1)*k]
		for j := i; j < n; j++ {
			qj := q.Data[j*k : (j+1)*k]
			var s float64
			for l, v := range qi {
				s += v * qj[l]
			}
			out.Data[i*n+j] = s
			out.Data[j*n+i] = s
		}
	}
}

func seqMulABInto(out, a, b *matrix.Dense) {
	k, c := a.C, b.C
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.R; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*c : (i+1)*c]
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[l*c : (l+1)*c]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func seqCongruenceDiagInto(out, v *matrix.Dense, d []float64) {
	n, k := v.R, v.C
	for i := 0; i < n; i++ {
		vi := v.Data[i*k : (i+1)*k]
		for j := i; j < n; j++ {
			vj := v.Data[j*k : (j+1)*k]
			var s float64
			for l, vv := range vi {
				s += vv * d[l] * vj[l]
			}
			out.Data[i*n+j] = s
			out.Data[j*n+i] = s
		}
	}
}

func seqDotMany(out []float64, as []*matrix.Dense, scale float64, p *matrix.Dense) {
	for i, a := range as {
		var s float64
		for k, v := range a.Data {
			s += v * p.Data[k]
		}
		out[i] = scale * s
	}
}

func seqLinComb(dst *matrix.Dense, coeffs []float64, mats []*matrix.Dense) {
	for k := range dst.Data {
		dst.Data[k] = 0
	}
	for i, m := range mats {
		c := coeffs[i]
		if c == 0 {
			continue
		}
		for k, v := range m.Data {
			dst.Data[k] += c * v
		}
	}
}

func seqMulVec(dst []float64, m *matrix.Dense, v []float64) {
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

func seqDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func seqSymMV(out []float64, a *sparse.CSC, v []float64) {
	for j := 0; j < a.C; j++ {
		var s float64
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += a.Val[k] * v[a.Row[k]]
		}
		out[j] = s
	}
}

func seqAccumulateScaled(out []float64, st *sparse.Stack, x, v []float64) {
	for r := 0; r < st.M; r++ {
		var s float64
		for p := st.RowPtr[r]; p < st.RowPtr[r+1]; p++ {
			s += st.Val[p] * x[st.Con[p]] * v[st.Col[p]]
		}
		out[r] = s
	}
}

func seqQuadForms(out []float64, as []*sparse.CSC, scale float64, v []float64) {
	for i, a := range as {
		var total float64
		for j := 0; j < a.C; j++ {
			var dot float64
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				dot += a.Val[k] * v[a.Row[k]]
			}
			total += dot * v[j]
		}
		out[i] = scale * total
	}
}

// randSymCSC builds a random symmetric n×n CSC with ~2·deg off-diagonal
// entries per row plus a positive diagonal.
func randSymCSC(n, deg int, rng *rand.Rand) *sparse.CSC {
	var trips []sparse.Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, sparse.Triplet{Row: i, Col: i, Val: 1 + rng.Float64()})
		for d := 0; d < deg; d++ {
			j := rng.IntN(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			trips = append(trips,
				sparse.Triplet{Row: i, Col: j, Val: v},
				sparse.Triplet{Row: j, Col: i, Val: v})
		}
	}
	a, err := sparse.NewCSC(n, n, trips)
	if err != nil {
		panic(err)
	}
	return a
}

func randMat(r, c int, rng *rand.Rand) *matrix.Dense {
	m := matrix.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randSym(n int, rng *rand.Rand) *matrix.Dense {
	m := randMat(n, n, rng)
	m.Symmetrize()
	return m
}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
