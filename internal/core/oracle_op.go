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

// This file implements the representation-agnostic operator oracles:
// every constraint representation exposing the PsiOperator primitives
// (an O(nnz) Ψ·v and batched quadratic forms against a row block) gets
// both the sketched bigDotExp oracle of Theorem 4.1 and the
// deterministic column-exact oracle. FactoredSet and SparseSet share
// this code path verbatim; the dense eigendecomposition oracle in
// oracle.go remains the reference path for DenseSet.

// opScratch is the per-run reusable state both operator oracles share:
// reseedable randomness (one PCG reseeded per use instead of a fresh
// generator per iteration — the streams are bitwise identical), the
// ratio vector, the Lanczos workspace, and the Ψ-apply closures — one
// sequential closure for Lanczos plus one per exponential row for the
// concurrent ExpMV loop, each owning its column scratch.
//
// The whole bundle round-trips through the workspace stash between
// decision calls: building it costs O(rows) heap allocations (the
// closures, their column scratch, and the three ExpMV vectors per row),
// which used to recur on every Decision call and dominated the factored
// path's allocation profile. The closures read the operator and the
// current dual vector through a shared holder at call time, so a
// restored bundle rebinds to the new oracle by overwriting two holder
// fields — no closure is ever rebuilt.
type opScratch struct {
	hold    *opHolder
	pcg     *rand.PCG
	rng     *rand.Rand
	r       []float64   // ratio buffer returned by ratios
	psiTmp  []float64   // Ψ·v column scratch of the Lanczos closure
	rowTmps [][]float64 // Ψ·v column scratch per exponential row
	lws     eigen.LanczosWS
	applyFn func(in, out []float64)   // Ψ·v (sequential, Lanczos)
	halfFns []func(in, out []float64) // per-row (Ψ/2)·v closures
	mv      []expm.MVScratch          // per-row ExpMV scratch
}

// opHolder is the indirection the stashed closures read through: the
// operator and a pointer to the owning oracle's dual vector. Stashing
// nils both fields (so the instance is not retained across runs);
// restoring points them at the new owner.
type opHolder struct {
	set PsiOperator
	xp  *[]float64
}

// opStashKey identifies the shape of a stashed opScratch bundle. Two
// bundles are interchangeable exactly when every buffer length matches:
// n (ratio vector), dim (ExpMV vectors), scratch (Ψ-apply column
// scratch), rows (closure count).
type opStashKey struct{ n, dim, scratch, rows int }

func (sc *opScratch) ready() bool { return sc.pcg != nil }

// init builds the scratch for rows concurrent exponential rows over
// set, restoring a stashed bundle of the same shape when one is
// available — the steady state for repeated decision calls on one
// workspace — and building from scratch otherwise. The Lanczos basis is
// prewarmed to the oracle's per-iteration refresh depth lanczosIter,
// with rows pooled in ws, so steady-state λ_max refreshes never
// allocate, however slowly they converge.
func (sc *opScratch) init(set PsiOperator, ws *work.Workspace, rows, lanczosIter int, xp *[]float64) {
	key := opStashKey{set.N(), set.Dim(), set.PsiScratchLen(), rows}
	if v, ok := ws.TakeStash(key); ok {
		*sc = *v.(*opScratch)
		sc.hold.set = set
		sc.hold.xp = xp
		sc.lws.Prewarm(ws, set.Dim(), lanczosIter)
		return
	}
	hold := &opHolder{set: set, xp: xp}
	sc.hold = hold
	sc.pcg = &rand.PCG{}
	sc.rng = rand.New(sc.pcg)
	sc.r = make([]float64, set.N())
	sc.psiTmp = make([]float64, set.PsiScratchLen())
	sc.lws.Prewarm(ws, set.Dim(), lanczosIter)
	tmp := sc.psiTmp
	sc.applyFn = func(in, out []float64) { hold.set.ApplyPsiScratch(*hold.xp, in, out, tmp) }
	sc.halfFns = make([]func(in, out []float64), rows)
	sc.mv = make([]expm.MVScratch, rows)
	sc.rowTmps = make([][]float64, rows)
	for r := range sc.halfFns {
		rowTmp := make([]float64, set.PsiScratchLen())
		sc.rowTmps[r] = rowTmp
		sc.halfFns[r] = func(in, out []float64) {
			hold.set.ApplyPsiScratch(*hold.xp, in, out, rowTmp)
			for i := range out {
				out[i] *= 0.5
			}
		}
	}
}

// jlLanczosIter and exactLanczosIter cap the Krylov depth of the
// oracles' per-iteration λ_max refreshes (certificate-grade calls at
// finish use a deeper budget and may grow the basis lazily).
const (
	jlLanczosIter    = 48
	exactLanczosIter = 64
)

// release returns the Lanczos basis rows to ws and stashes the whole
// bundle for the next same-shaped init; the scratch reverts to its
// unbuilt state. The closures' column scratch stays inside the bundle —
// it is captured by the closures, so handing it to the vector pool
// would let an unrelated borrower alias it. Stashing nils the holder so
// the operator instance is not retained across runs.
func (sc *opScratch) release(ws *work.Workspace) {
	if sc.pcg == nil {
		return
	}
	sc.lws.ReleaseBasis(ws)
	key := opStashKey{len(sc.r), sc.hold.set.Dim(), len(sc.psiTmp), len(sc.halfFns)}
	sc.hold.set, sc.hold.xp = nil, nil
	st := new(opScratch)
	*st = *sc
	ws.Stash(key, st)
	*sc = opScratch{}
}

// opJLOracle is the bigDotExp primitive of Theorem 4.1 over any
// PsiOperator:
//
//	exp(Ψ) • Aᵢ = Σ_r s_rᵀ·Aᵢ·s_r over rows of S = Π exp(Ψ/2),
//
// estimated by sketching with a fresh Gaussian Π each iteration:
// S is assembled from k = O(ε_s⁻² log m) ExpMV applications of exp(Ψ/2)
// to the rows of Π (each O(q·κ) work), after which every constraint
// costs O(k·nnz) through ExpDots (a sketch dot for factored sets, a
// batched quadratic form for sparse sets), and Tr[exp(Ψ)] =
// ‖exp(Ψ/2)‖_F² is estimated by ‖S‖_F². All quantities are carried in a
// common log-scale so ‖Ψ‖₂ ~ K/ε never overflows.
//
// All iteration state is retained across calls: the sketch matrix is
// refilled (not reallocated), the PCG is reseeded (not reconstructed),
// and all scratch lives in opScratch. A steady-state ratios call
// performs only a small constant number of allocations (the fork
// closures of the row loops — none at GOMAXPROCS=1, where the serial
// guards fire).
type opJLOracle struct {
	set       PsiOperator
	ws        *work.Workspace
	x         []float64
	sketchEps float64
	rows      int
	seed      uint64
	iter      uint64
	// lambdaEst is a running Lanczos estimate of λ_max(Ψ), refreshed
	// every iteration (cheap: O(q) per Lanczos step) and used to bound
	// the ExpMV segmentation.
	lambdaEst float64
	st        *parallel.Stats
	tol       float64
	// ph, when non-nil, accumulates the Lanczos/ExpMV share of the
	// oracle's time (SolveStats.ExpmNS).
	ph *SolveStats

	sc   opScratch
	jl   *sketch.JL
	s    *matrix.Dense // sketch rows through exp(Ψ/2)
	logs []float64
}

func newOpJLOracle(set PsiOperator, sketchEps float64, seed uint64, st *parallel.Stats, ws *work.Workspace) *opJLOracle {
	if sketchEps <= 0 {
		sketchEps = 0.2
	}
	return &opJLOracle{
		set:       set,
		ws:        ws,
		sketchEps: sketchEps,
		rows:      sketch.Rows(set.Dim(), sketchEps),
		seed:      seed,
		st:        st,
		tol:       1e-10,
	}
}

func (o *opJLOracle) init(x []float64) error {
	if len(x) != o.set.N() {
		return fmt.Errorf("core: operator oracle: x has %d entries, want %d", len(x), o.set.N())
	}
	o.x = x
	o.lambdaEst = 0
	if !o.sc.ready() {
		o.sc.init(o.set, o.ws, o.rows, jlLanczosIter, &o.x)
		o.s = o.ws.Mat(o.rows, o.set.Dim())
		o.logs = o.ws.Vec(o.rows)
	}
	return nil
}

func (o *opJLOracle) update(_ []int, _ []float64, x []float64) error {
	o.x = x
	return nil
}

// refreshLambda updates the Lanczos estimate of λ_max(Ψ). Lanczos
// returns a lower bound; a 5% headroom makes it a safe ExpMV
// segmentation bound (undershooting only lengthens the Taylor series a
// little, it does not break correctness).
func (o *opJLOracle) refreshLambda() error {
	o.sc.pcg.Seed(o.seed^0xabcdef, o.iter)
	lam, err := eigen.LanczosMax(o.sc.applyFn, o.set.Dim(), eigen.LanczosOpts{
		MaxIter: jlLanczosIter,
		Tol:     1e-6,
		Rng:     o.sc.rng,
		WS:      &o.sc.lws,
	})
	if err != nil {
		return err
	}
	if lam < 0 {
		lam = 0
	}
	o.lambdaEst = lam
	return nil
}

func (o *opJLOracle) ratios() ([]float64, oracleInfo, error) {
	var mark time.Time
	if o.ph != nil {
		mark = time.Now()
	}
	if err := o.refreshLambda(); err != nil {
		return nil, oracleInfo{}, err
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	m := o.set.Dim()
	n := o.set.N()
	normHalf := 0.55*o.lambdaEst + 0.5 // bound for ‖Ψ/2‖ with headroom

	// Fresh Gaussian Π each iteration: refill the held sketch from the
	// reseeded stream (bitwise the same values a fresh sketch would get).
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

	// Rows of S: sᵣ = exp(Ψ/2)·Πᵣ, each with its own log-scale. Grain 1:
	// each row is a full ExpMV chain, expensive enough to fork per row;
	// below the fork grain the plain loop computes the identical values
	// without building a closure.
	s := o.s
	logs := o.logs
	if o.ph != nil {
		mark = time.Now()
	}
	if parallel.SerialBlock(o.rows, 1) {
		for r := 0; r < o.rows; r++ {
			logs[r] = expm.ExpMVInto(s.Data[r*m:(r+1)*m], o.sc.halfFns[r], o.jl.RowVec(r), normHalf, o.tol, &o.sc.mv[r])
		}
	} else {
		parallel.ForBlock(o.rows, 1, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				logs[r] = expm.ExpMVInto(s.Data[r*m:(r+1)*m], o.sc.halfFns[r], o.jl.RowVec(r), normHalf, o.tol, &o.sc.mv[r])
			}
		})
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	// Rescale all rows to the common maximum log-scale L.
	maxLog := rescaleRows(s, logs)

	// trEst·e^{2L} ≈ Tr[exp(Ψ)] = ‖exp(Ψ/2)‖_F².
	trEst := sumSquares(s.Data)
	if trEst <= 0 || math.IsNaN(trEst) {
		return nil, oracleInfo{}, fmt.Errorf("core: operator oracle: degenerate trace estimate %v", trEst)
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

// addRowsCost records the analytic cost of one operator-oracle call:
// rows concurrent ExpMV chains (rows × one chain's work, one chain's
// depth) followed by rows·q constraint dots through ExpDots.
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

// rescaleRows brings every row of s from its own log-scale logs[r] to
// the common maximum log-scale, which it returns. Rows are rescaled in
// parallel with the blocked vector kernel; below the fork grain a plain
// loop computes the identical values without building a closure.
func rescaleRows(s *matrix.Dense, logs []float64) float64 {
	maxLog := logs[0]
	for _, l := range logs[1:] {
		if l > maxLog {
			maxLog = l
		}
	}
	if parallel.SerialBlock(s.R, 1) {
		m := s.C
		for r := 0; r < s.R; r++ {
			row := s.Data[r*m : (r+1)*m]
			matrix.VecScale(row, math.Exp(logs[r]-maxLog), row)
		}
		return maxLog
	}
	// The fork closure lives in a helper so its capture boxes are only
	// allocated when the parallel branch actually runs.
	rescaleRowsParallel(s, logs, maxLog)
	return maxLog
}

func rescaleRowsParallel(s *matrix.Dense, logs []float64, maxLog float64) {
	m := s.C
	parallel.For(s.R, func(r int) {
		row := s.Data[r*m : (r+1)*m]
		matrix.VecScale(row, math.Exp(logs[r]-maxLog), row)
	})
}

// lambdaMaxPsi runs a certificate-grade Lanczos (tight tolerance, many
// iterations, full reorthogonalization).
func (o *opJLOracle) lambdaMaxPsi() (float64, error) {
	o.sc.pcg.Seed(o.seed^0x5eed, 0x7ea1)
	lam, err := eigen.LanczosMax(o.sc.applyFn, o.set.Dim(), eigen.LanczosOpts{
		MaxIter: 256,
		Tol:     1e-12,
		Rng:     o.sc.rng,
		WS:      &o.sc.lws,
	})
	if err != nil {
		return 0, err
	}
	return lam, nil
}

func (o *opJLOracle) probability() *matrix.Dense { return nil }

func (o *opJLOracle) release() {
	if !o.sc.ready() {
		return
	}
	o.sc.release(o.ws)
	o.ws.PutMat(o.s)
	o.ws.PutVec(o.logs)
	o.s, o.logs = nil, nil
	if o.jl != nil {
		o.ws.PutMat(o.jl.M)
		o.jl = nil
	}
}

// opExactOracle evaluates exp(Ψ)•Aᵢ exactly (to ExpMV tolerance) by
// applying exp(Ψ/2) to every basis vector and taking per-constraint
// quadratic forms against the resulting rows, and Tr[exp(Ψ)] as
// ‖exp(Ψ/2)‖_F². Deterministic but O((q + m²)·κ) per iteration — the
// cross-validation oracle for the JL path on small instances, and the
// fully deterministic production path for sparse sets. It shares the JL
// oracle's buffer discipline through the same opScratch; at
// GOMAXPROCS=1 a steady-state iteration performs zero heap allocations
// (the serial guards skip every fork closure).
type opExactOracle struct {
	set       PsiOperator
	ws        *work.Workspace
	x         []float64
	lambdaEst float64
	seed      uint64
	st        *parallel.Stats
	// ph, when non-nil, accumulates the Lanczos/ExpMV share of the
	// oracle's time (SolveStats.ExpmNS).
	ph *SolveStats

	sc     opScratch
	cols   *matrix.Dense
	logs   []float64
	basisV []float64
}

func newOpExactOracle(set PsiOperator, seed uint64, st *parallel.Stats, ws *work.Workspace) *opExactOracle {
	return &opExactOracle{set: set, seed: seed, st: st, ws: ws}
}

func (o *opExactOracle) init(x []float64) error {
	if len(x) != o.set.N() {
		return fmt.Errorf("core: exact operator oracle: x has %d entries, want %d", len(x), o.set.N())
	}
	o.x = x
	if !o.sc.ready() {
		m := o.set.Dim()
		o.sc.init(o.set, o.ws, m, exactLanczosIter, &o.x)
		o.cols = o.ws.Mat(m, m)
		o.logs = o.ws.Vec(m)
		o.basisV = o.ws.Vec(m * m)
	}
	return nil
}

func (o *opExactOracle) update(_ []int, _ []float64, x []float64) error {
	o.x = x
	return nil
}

func (o *opExactOracle) ratios() ([]float64, oracleInfo, error) {
	var mark time.Time
	if o.ph != nil {
		mark = time.Now()
	}
	o.sc.pcg.Seed(o.seed, 0xfeed)
	lam, err := eigen.LanczosMax(o.sc.applyFn, o.set.Dim(), eigen.LanczosOpts{
		MaxIter: exactLanczosIter, Tol: 1e-8,
		Rng: o.sc.rng,
		WS:  &o.sc.lws,
	})
	if err != nil {
		return nil, oracleInfo{}, err
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	o.lambdaEst = math.Max(lam, 0)
	m := o.set.Dim()
	normHalf := 0.55*o.lambdaEst + 0.5

	// Exponentiate the identity column by column: column j of exp(Ψ/2).
	// Shared log-scale normalization as in the JL oracle. Row r of cols
	// is exp(Ψ/2)·e_r (symmetric, so rows = cols); the basis vectors are
	// one held m×m buffer written once per call.
	cols := o.cols
	logs := o.logs
	if o.ph != nil {
		mark = time.Now()
	}
	if parallel.SerialBlock(m, 1) {
		for r := 0; r < m; r++ {
			e := o.basisV[r*m : (r+1)*m]
			matrix.BasisInto(e, r)
			logs[r] = expm.ExpMVInto(cols.Data[r*m:(r+1)*m], o.sc.halfFns[r], e, normHalf, 1e-12, &o.sc.mv[r])
		}
	} else {
		parallel.ForBlock(m, 1, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				e := o.basisV[r*m : (r+1)*m]
				matrix.BasisInto(e, r)
				logs[r] = expm.ExpMVInto(cols.Data[r*m:(r+1)*m], o.sc.halfFns[r], e, normHalf, 1e-12, &o.sc.mv[r])
			}
		})
	}
	if o.ph != nil {
		o.ph.ExpmNS += time.Since(mark).Nanoseconds()
	}
	maxLog := rescaleRows(cols, logs)
	trEst := sumSquares(cols.Data)
	if trEst <= 0 || math.IsNaN(trEst) {
		return nil, oracleInfo{}, fmt.Errorf("core: exact operator oracle: degenerate trace %v", trEst)
	}
	n := o.set.N()
	r := o.sc.r
	o.set.ExpDots(r, cols)
	for i := 0; i < n; i++ {
		r[i] /= trEst
	}
	addRowsCost(o.st, m, o.set.NNZ(), normHalf, 1e-12, m)
	return r, oracleInfo{LambdaMax: o.lambdaEst, LogTrW: 2*maxLog + math.Log(trEst)}, nil
}

func (o *opExactOracle) lambdaMaxPsi() (float64, error) {
	o.sc.pcg.Seed(o.seed^0x5eed, 0x7ea1)
	return eigen.LanczosMax(o.sc.applyFn, o.set.Dim(), eigen.LanczosOpts{
		MaxIter: 256, Tol: 1e-12,
		Rng: o.sc.rng,
		WS:  &o.sc.lws,
	})
}

func (o *opExactOracle) probability() *matrix.Dense { return nil }

func (o *opExactOracle) release() {
	if !o.sc.ready() {
		return
	}
	o.sc.release(o.ws)
	o.ws.PutMat(o.cols)
	o.ws.PutVec(o.logs)
	o.ws.PutVec(o.basisV)
	o.cols, o.logs, o.basisV = nil, nil, nil
}
