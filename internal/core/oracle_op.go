package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/work"
)

// This file implements the representation-agnostic operator oracle:
// every constraint representation exposing the PsiOperator primitives
// (an O(nnz) Ψ·v and batched quadratic forms against a row block) gets
// the bigDotExp oracle of Theorem 4.1, in its sketched mode and in the
// deterministic column-exact mode. FactoredSet and SparseSet share this
// code path verbatim; the dense eigendecomposition oracle in oracle.go
// remains the reference path for DenseSet.

// opScratch is the per-run reusable state of both oracle modes:
// reseedable randomness (one PCG reseeded per use instead of a fresh
// generator per iteration — the streams are bitwise identical), the
// ratio vector, the Lanczos workspace, the one Ψ-apply closure — Ψ·V
// over an interleaved block, k = 1 for Lanczos — and the lockstep ExpMV
// block: the k chains of one ratios call (sketch rows or basis vectors)
// stored interleaved, entry i of chain c at i·k+c, so every Taylor term
// is one sparse-times-block product.
//
// Ψ(x) is fixed for one oracle call, so each call loads its
// coefficients once (load) and every apply after that reads them.
//
// The whole bundle round-trips through the workspace stash between
// decision calls, so the closure and buffers are built once per
// workspace instead of once per Decision call. The closure reads the
// operator and its loaded coefficients through a shared holder at call
// time, so a restored bundle rebinds to the new oracle by overwriting
// one holder field — the closure is never rebuilt. The buffers are
// sized on first use and grow to the widest block they serve: the JL
// and exact modes of one decision run share a stash key and may swap
// bundles between calls.
type opScratch struct {
	hold    *opHolder
	pcg     *rand.PCG
	rng     *rand.Rand
	r       []float64 // ratio buffer returned by ratios
	lws     eigen.LanczosWS
	applyFn func(in, out []float64) // Ψ·V over len(in)/Dim() interleaved vectors

	in, out []float64 // m·k start vectors and results of the chains
	logs    []float64 // k per-chain log-scales
	mv      expm.MVScratch
}

// opHolder is the indirection the stashed closure reads through: the
// operator, its coefficients as last loaded, and the block Ψ-apply
// scratch (k·PsiScratchLen() entries). Stashing nils the operator (so
// the instance is not retained across runs); restoring points it at the
// new owner's.
type opHolder struct {
	set       PsiOperator
	coef, tmp []float64
}

// opStashKey identifies the shape of a stashed opScratch bundle. Two
// bundles are interchangeable exactly when every fixed buffer length
// matches: n (ratio vector) and dim (Lanczos and ExpMV vectors); the
// coefficient and apply scratch are resized on use.
type opStashKey struct{ n, dim int }

func (sc *opScratch) ready() bool { return sc.pcg != nil }

// init builds the scratch over set, restoring a stashed bundle of the
// same shape when one is available — the steady state for repeated
// decision calls on one workspace — and building from scratch
// otherwise. The Lanczos basis is prewarmed to the oracle's
// per-iteration refresh depth lanczosIter, with rows pooled in ws, so
// steady-state λ_max refreshes never allocate, however slowly they
// converge. A built scratch is left as it is.
func (sc *opScratch) init(set PsiOperator, ws *work.Workspace, lanczosIter int) {
	if sc.ready() {
		return
	}
	key := opStashKey{set.N(), set.Dim()}
	if v, ok := ws.TakeStash(key); ok {
		*sc = *v.(*opScratch)
		sc.hold.set = set
		sc.lws.Prewarm(ws, set.Dim(), lanczosIter)
		return
	}
	hold := &opHolder{set: set}
	sc.hold = hold
	sc.pcg = &rand.PCG{}
	sc.rng = rand.New(sc.pcg)
	sc.r = make([]float64, set.N())
	sc.lws.Prewarm(ws, set.Dim(), lanczosIter)
	sc.applyFn = func(in, out []float64) {
		k := len(in) / hold.set.Dim()
		hold.set.ApplyPsiBlock(hold.coef, in, out, hold.tmp, k)
	}
}

// load fixes Ψ(x) for the oracle call about to run: the coefficients
// every apply of the call reads, and apply scratch for k vectors.
func (sc *opScratch) load(x []float64, k int) {
	h := sc.hold
	h.coef = work.Resize(h.coef, h.set.PsiCoefLen())
	h.set.LoadPsi(x, h.coef)
	h.tmp = work.Resize(h.tmp, k*h.set.PsiScratchLen())
}

// lanczos estimates λ_max of the loaded Ψ from the reseeded stream
// (s1, s2), with the basis in the prewarmed workspace.
func (sc *opScratch) lanczos(s1, s2 uint64, maxIter int, tol float64) (float64, error) {
	sc.pcg.Seed(s1, s2)
	return eigen.LanczosMax(sc.applyFn, sc.hold.set.Dim(), eigen.LanczosOpts{
		MaxIter: maxIter, Tol: tol, Rng: sc.rng, WS: &sc.lws,
	})
}

// certLambda is the certificate-grade λ_max(Ψ(x)) of both oracle
// modes from the reseeded stream (s1, s2): LambdaMaxPsi's tight
// tolerance and Krylov depth, full reorthogonalization.
func (sc *opScratch) certLambda(x []float64, s1, s2 uint64) (float64, error) {
	sc.load(x, 1)
	return sc.lanczos(s1, s2, certLanczosIter, certLanczosTol)
}

// expHalf runs k lockstep ExpMV chains through exp(Ψ/2), one per row
// of dst, over the coefficients loaded for k vectors: chain c starts
// from row c of starts (nil: the standard basis vector e_c), and row c
// of dst receives its result rescaled from the chain's own log-scale to
// the common maximum, which expHalf returns.
func (sc *opScratch) expHalf(dst, starts *matrix.Dense, normHalf, tol float64) float64 {
	k, m := dst.R, dst.C
	in := work.Resize(sc.in, m*k)
	sc.in, sc.out, sc.logs = in, work.Resize(sc.out, m*k), work.Resize(sc.logs, k)
	for i := 0; i < m; i++ {
		for c := 0; c < k; c++ {
			if starts != nil {
				in[i*k+c] = starts.Data[c*m+i]
			} else if i == c {
				in[i*k+c] = 1
			} else {
				in[i*k+c] = 0
			}
		}
	}
	expm.ExpMVBlockInto(sc.out, sc.logs, sc.applyFn, in, 0.5, normHalf, tol, &sc.mv)
	maxLog := sc.logs[0]
	for _, l := range sc.logs[1:] {
		if l > maxLog {
			maxLog = l
		}
	}
	for c, l := range sc.logs {
		f := math.Exp(l - maxLog)
		row := dst.Data[c*m : (c+1)*m]
		for i := range row {
			row[i] = f * sc.out[i*k+c]
		}
	}
	return maxLog
}

// release returns the Lanczos basis rows to ws and stashes the whole
// bundle for the next same-shaped init; the scratch reverts to its
// unbuilt state. The closure's scratch stays inside the bundle — it is
// read by the closure, so handing it to the vector pool would let an
// unrelated borrower alias it. Stashing nils the holder's operator so
// the instance is not retained across runs.
func (sc *opScratch) release(ws *work.Workspace) {
	if sc.pcg == nil {
		return
	}
	sc.lws.ReleaseBasis(ws)
	key := opStashKey{len(sc.r), sc.hold.set.Dim()}
	sc.hold.set = nil
	st := new(opScratch)
	*st = *sc
	ws.Stash(key, st)
	*sc = opScratch{}
}

// opOracle is the bigDotExp primitive of Theorem 4.1 over any
// PsiOperator:
//
//	exp(Ψ) • Aᵢ = Σ_r s_rᵀ·Aᵢ·s_r over rows of S = B·exp(Ψ/2),
//
// for a block B of start rows, in one of two modes that differ only in
// B and in their constants:
//
//   - JL (sketched): B = Π, a fresh Gaussian sketch refilled from
//     (seed, iter) every call, k = O(ε_s⁻² log m) rows; the estimate
//     carries (1±ε_s) noise.
//   - Exact: B = I, all m basis vectors — deterministic, to ExpMV
//     tolerance, at O((q + m²)·κ) per call. The cross-validation oracle
//     for the JL mode on small instances and the fully deterministic
//     production path for sparse sets.
//
// S is assembled from k ExpMV applications of exp(Ψ/2) (each O(q·κ)
// work), after which every constraint costs O(k·nnz) through ExpDots
// (a sketch dot for factored sets, a batched quadratic form for sparse
// sets), and Tr[exp(Ψ)] = ‖exp(Ψ/2)‖_F² is estimated by ‖S‖_F². All
// quantities are carried in a common log-scale so ‖Ψ‖₂ ~ K/ε never
// overflows.
//
// All iteration state is retained across calls: the block is refilled
// (not reallocated), the PCG is reseeded (not reconstructed), and all
// scratch lives in opScratch. The k chains run as one lockstep block,
// never one fork per row, so a steady-state ratios call forks only
// inside kernels whose work pays for it — and at GOMAXPROCS=1, where
// the serial guards fire, allocates nothing.
type opOracle struct {
	set  PsiOperator
	ws   *work.Workspace
	x    []float64
	name string // error-text prefix
	// sketched selects the JL mode. rows is k (sketch.Rows, or m in the
	// exact mode); lanczosIter and lanczosTol drive the per-call λ_max
	// refresh, tol the ExpMV truncation.
	sketched    bool
	rows        int
	lanczosIter int
	lanczosTol  float64
	tol         float64
	seed        uint64
	iter        uint64
	// lambdaEst is the per-call Lanczos estimate of λ_max(Ψ) (cheap:
	// O(q) per Lanczos step), used to bound the ExpMV segmentation.
	lambdaEst float64
	st        *parallel.Stats
	// ph, when non-nil, accumulates the Lanczos/ExpMV share of the
	// oracle's time (SolveStats.ExpmNS).
	ph *SolveStats

	sc opScratch
	jl *sketch.JL    // JL mode: the sketch Π
	s  *matrix.Dense // the rows of B through exp(Ψ/2)
}

// jlLanczosIter and exactLanczosIter cap the Krylov depth of the
// modes' per-call λ_max refreshes (certificate-grade calls at finish
// use a deeper budget and may grow the basis lazily).
const (
	jlLanczosIter    = 48
	exactLanczosIter = 64
)

// newOpOracle returns the operator oracle in the JL mode (sketched,
// at sketch accuracy sketchEps; 0 means 0.2) or in the exact mode
// (sketchEps unused).
func newOpOracle(set PsiOperator, sketched bool, sketchEps float64, seed uint64, st *parallel.Stats, ws *work.Workspace) *opOracle {
	o := &opOracle{set: set, ws: ws, sketched: sketched, seed: seed, st: st}
	if !sketched {
		o.name, o.rows, o.lanczosIter, o.lanczosTol, o.tol = "exact operator oracle", set.Dim(), exactLanczosIter, 1e-8, 1e-12
		return o
	}
	if sketchEps <= 0 {
		sketchEps = 0.2
	}
	o.name, o.rows, o.lanczosIter, o.lanczosTol, o.tol = "operator oracle", sketch.Rows(set.Dim(), sketchEps), jlLanczosIter, 1e-6, 1e-10
	return o
}

func (o *opOracle) init(x []float64) error {
	if len(x) != o.set.N() {
		return fmt.Errorf("core: %s: x has %d entries, want %d", o.name, len(x), o.set.N())
	}
	o.x = x
	o.sc.init(o.set, o.ws, o.lanczosIter)
	if o.s == nil {
		o.s = o.ws.Mat(o.rows, o.set.Dim())
	}
	return nil
}

func (o *opOracle) update(_ []int, _ []float64, x []float64) error {
	o.x = x
	return nil
}

func (o *opOracle) ratios() ([]float64, oracleInfo, error) {
	var mark time.Time
	if o.ph != nil {
		mark = time.Now()
	}
	// Refresh the Lanczos estimate of λ_max(Ψ). Lanczos returns a lower
	// bound; a 5% headroom makes it a safe ExpMV segmentation bound
	// (undershooting only lengthens the Taylor series a little, it does
	// not break correctness).
	o.sc.load(o.x, o.rows)
	s1, s2 := o.seed, uint64(0xfeed)
	if o.sketched {
		s1, s2 = o.seed^0xabcdef, o.iter
	}
	lam, err := o.sc.lanczos(s1, s2, o.lanczosIter, o.lanczosTol)
	if err != nil {
		return nil, oracleInfo{}, err
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	o.lambdaEst = math.Max(lam, 0)
	m := o.set.Dim()
	n := o.set.N()
	normHalf := 0.55*o.lambdaEst + 0.5 // bound for ‖Ψ/2‖ with headroom

	// The JL mode draws a fresh Gaussian Π each call: it refills the
	// held sketch from the reseeded stream (bitwise the same values a
	// fresh sketch would get). The exact mode starts from the identity.
	var starts *matrix.Dense
	if o.sketched {
		o.sc.pcg.Seed(o.seed, o.iter)
		if o.jl == nil {
			jl, err := sketch.NewWS(o.ws, o.rows, m, o.sc.rng)
			if err != nil {
				return nil, oracleInfo{}, err
			}
			o.jl = jl
		} else {
			o.jl.Refill(o.sc.rng)
		}
		o.iter++
		starts = o.jl.M
	}

	// Rows of S: sᵣ = exp(Ψ/2)·Bᵣ, the k chains in one lockstep block,
	// brought from their own log-scales to the common maximum L.
	if o.ph != nil {
		mark = time.Now()
	}
	s := o.s
	maxLog := o.sc.expHalf(s, starts, normHalf, o.tol)
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}

	// trEst·e^{2L} ≈ Tr[exp(Ψ)] = ‖exp(Ψ/2)‖_F².
	trEst := sumSquares(s.Data)
	if trEst <= 0 || math.IsNaN(trEst) {
		what := "trace"
		if o.sketched {
			what = "trace estimate"
		}
		return nil, oracleInfo{}, fmt.Errorf("core: %s: degenerate %s %v", o.name, what, trEst)
	}

	// rᵢ = scale·(Aᵢ • SᵀS) / trEst (the e^{2L} factors cancel).
	r := o.sc.r
	o.set.ExpDots(r, s)
	for i := 0; i < n; i++ {
		r[i] /= trEst
	}

	// Analytic cost per Theorem 4.1: k ExpMV passes + k·q constraint dots.
	addRowsCost(o.st, o.rows, o.set.NNZ(), normHalf, o.tol, m)

	return r, oracleInfo{
		LambdaMax: o.lambdaEst,
		LogTrW:    2*maxLog + math.Log(trEst),
	}, nil
}

func (o *opOracle) lambdaMaxPsi() (float64, error) {
	return o.sc.certLambda(o.x, o.seed^0x5eed, 0x7ea1)
}

func (o *opOracle) lambdaMaxAt(x []float64) (float64, error) {
	o.sc.init(o.set, o.ws, o.lanczosIter)
	return o.sc.certLambda(x, certSeed1, certSeed2)
}

func (o *opOracle) probability() *matrix.Dense { return nil }

func (o *opOracle) release() {
	o.sc.release(o.ws)
	if o.s == nil {
		return
	}
	o.ws.PutMat(o.s)
	o.s = nil
	if o.jl != nil {
		o.ws.PutMat(o.jl.M)
		o.jl = nil
	}
}

// addRowsCost records the analytic cost of one operator-oracle call:
// rows ExpMV chains in one lockstep block (rows × one chain's work, one
// chain's depth) followed by rows·q constraint dots through ExpDots.
func addRowsCost(st *parallel.Stats, rows, nnz int, normHalf, tol float64, m int) {
	if st == nil {
		return
	}
	w, d := expm.ExpMVCost(nnz, normHalf, tol, m)
	st.Add(int64(rows)*w, d)
	st.Add(int64(rows)*int64(2*nnz), parallel.Log2(m))
}

// sumSquares returns Σ aᵢ² with the same deterministic block reduction
// parallel.SumFloat would use. When forking is impossible the block
// tree is replayed with a plain loop — identical decomposition, same
// combine order, bit-identical result — so the zero-allocation steady
// state holds at every problem size, not just below one block.
func sumSquares(a []float64) float64 {
	n := len(a)
	blocks := parallel.BlockCount(n, 0)
	if blocks == 1 {
		return sumSquaresSeg(a, 0, n)
	}
	if parallel.Workers() == 1 {
		var s float64
		for b := 0; b < blocks; b++ {
			s += sumSquaresSeg(a, b*n/blocks, (b+1)*n/blocks)
		}
		return s
	}
	return parallel.SumBlocks(n, 0, func(lo, hi int) float64 {
		return sumSquaresSeg(a, lo, hi)
	})
}

func sumSquaresSeg(a []float64, lo, hi int) float64 {
	var s float64
	for _, v := range a[lo:hi] {
		s += v * v
	}
	return s
}
