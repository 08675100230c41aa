package core_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mixed"
	"repro/internal/sketch"
	"repro/internal/work"
)

// refRun is the per-solve state of referenceSolve.
type refRun struct {
	p      *mixed.Problem
	eps    float64
	x      []float64
	frozen []bool
	guard  []float64
	capv   []float64
	unit   []float64
	capped int
	// inexact counts cap events where x·(cap/x) would not land exactly
	// on the cap.
	inexact int
}

func (r *refRun) capFor(i int) (float64, error) {
	if r.capv[i] != 0 {
		return r.capv[i], nil
	}
	for k := range r.unit {
		r.unit[k] = 0
	}
	r.unit[i] = 1
	lam, err := core.LambdaMaxPsi(r.p.Pack, r.unit)
	if err != nil {
		return 0, err
	}
	c := math.Inf(1)
	if lam > 0 {
		c = (1 + r.eps) / lam
	}
	r.capv[i] = c
	return c, nil
}

func (r *refRun) step(i int, mult float64) (float64, error) {
	nx := r.x[i] * mult
	if mult > 1 && nx > r.guard[i] {
		cap, err := r.capFor(i)
		if err != nil {
			return 0, err
		}
		if nx >= cap {
			mult = cap / r.x[i]
			if r.x[i]*mult != cap {
				r.inexact++
			}
			nx = cap
			r.frozen[i] = true
			r.capped++
		}
	}
	r.x[i] = nx
	return mult, nil
}

// referenceSolve is a written-out copy of mixed.Solve as it stood with
// its own iteration loop, before the solver moved onto the loop
// DecisionPSDP uses. It drives the ratio oracle directly, on a private
// workspace, and is the bit-for-bit reference for the shared path. It
// also returns the refRun, whose counters show which branches ran.
func referenceSolve(p *mixed.Problem, eps float64, opts mixed.Options) (*mixed.Result, *refRun, error) {
	engine := core.ResolveEngine(opts.Engine, p.Pack, eps)
	n := p.Pack.N()
	d := p.Cover.R
	prm, err := core.ParamsFor(n, max(p.Pack.Dim(), d), eps)
	if err != nil {
		return nil, nil, err
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		if engine == core.EngineALO {
			maxIter = core.ALOIterCap(prm.LogN, eps)
		} else {
			maxIter = prm.R
		}
	}
	orc, err := core.NewRefOracle(p.Pack, eps, core.Options{Oracle: opts.Oracle, Seed: opts.Seed, SketchEps: eps / 2})
	if err != nil {
		return nil, nil, err
	}
	r := &refRun{
		p: p, eps: eps,
		x:      make([]float64, n),
		frozen: make([]bool, n),
		guard:  make([]float64, n),
		capv:   make([]float64, n),
		unit:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		tr := p.Pack.Trace(i)
		if tr > 0 {
			r.x[i] = 1 / (float64(n) * tr)
			r.guard[i] = (1 + eps) / tr
			continue
		}
		r.guard[i] = math.Inf(1)
		cmax := 0.0
		for j := 0; j < d; j++ {
			if v := p.Cover.Row(j)[i]; v > cmax {
				cmax = v
			}
		}
		if cmax > 0 {
			r.x[i] = 1 / (float64(n) * cmax)
		} else {
			r.frozen[i] = true
		}
	}
	res := &mixed.Result{Status: mixed.StatusInconclusive, Engine: engine.String()}
	if ws := opts.WarmStart; ws != nil && len(ws) == n && refWarmUsable(ws) {
		for i := 0; i < n; i++ {
			if r.frozen[i] || ws[i] <= r.x[i] {
				continue
			}
			v := ws[i]
			if v > r.guard[i] {
				cap, err := r.capFor(i)
				if err != nil {
					return nil, nil, err
				}
				if v >= cap {
					v = cap
					r.frozen[i] = true
					r.capped++
				}
			}
			r.x[i] = v
		}
		res.WarmStarted = true
	}
	if err := orc.Init(r.x); err != nil {
		return nil, nil, err
	}
	aloEta := eps / (8 * (1 + prm.LogN))
	cx := make([]float64, d)
	w := make([]float64, d)
	cRatio := make([]float64, n)
	var b []int
	var mults []float64

	t := 0
	for t < maxIter {
		t++
		pr, err := orc.Ratios()
		if err != nil {
			return nil, nil, err
		}
		p.Cover.MulVecTo(cx, r.x)
		minCx := matrix.VecMin(cx)
		if minCx >= 1 {
			break
		}
		for j := 0; j < d; j++ {
			w[j] = math.Exp(-(cx[j] - minCx))
		}
		trW := matrix.VecSum(w)
		for i := range cRatio {
			cRatio[i] = 0
		}
		for j := 0; j < d; j++ {
			wj := w[j] / trW
			if wj == 0 {
				continue
			}
			row := p.Cover.Row(j)
			for i := 0; i < n; i++ {
				cRatio[i] += wj * row[i]
			}
		}
		meanC := matrix.VecSum(cRatio) / float64(n)
		if meanC <= 0 {
			break
		}
		b = b[:0]
		mults = mults[:0]
		if engine == core.EngineALO {
			for i := 0; i < n; i++ {
				if r.frozen[i] {
					continue
				}
				g := -1.0
				if benefit := (1 + eps) * cRatio[i]; benefit > 0 {
					g = 1 - pr[i]/benefit
					if g > 1 {
						g = 1
					} else if g < -1 {
						g = -1
					}
				}
				b = append(b, i)
				mults = append(mults, math.Exp(aloEta*g))
			}
		} else {
			for i := 0; i < n; i++ {
				if r.frozen[i] {
					continue
				}
				if pr[i] <= (1+eps)*cRatio[i]/meanC {
					b = append(b, i)
					mults = append(mults, 1+prm.Alpha)
				}
			}
			if len(b) == 0 {
				best, arg := 0.0, -1
				for i := 0; i < n; i++ {
					if r.frozen[i] || pr[i] <= 0 {
						continue
					}
					if ratio := cRatio[i] / pr[i]; ratio > best {
						best, arg = ratio, i
					}
				}
				if arg >= 0 {
					b = append(b, arg)
					mults = append(mults, 1+prm.Alpha)
				}
			}
		}
		if len(b) == 0 {
			break
		}
		for j, i := range b {
			m, err := r.step(i, mults[j])
			if err != nil {
				return nil, nil, err
			}
			mults[j] = m
		}
		if err := orc.UpdateMults(b, mults, r.x); err != nil {
			return nil, nil, err
		}
	}

	res.Iterations = t
	res.Capped = r.capped
	res.X = matrix.VecClone(r.x)
	p.Cover.MulVecTo(cx, r.x)
	res.MinCoverage = matrix.VecMin(cx)
	lam, err := core.LambdaMaxPsi(p.Pack, r.x)
	if err != nil {
		return nil, nil, err
	}
	res.LambdaMax = lam
	if res.MinCoverage >= 1-eps && res.LambdaMax <= 1+10*eps {
		res.Status = mixed.StatusFeasible
	}
	return res, r, nil
}

func refWarmUsable(ws []float64) bool {
	for _, v := range ws {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// mixedRefCase is one instance of the reference family.
type mixedRefCase struct {
	name string
	p    *mixed.Problem
	eps  float64
	opts mixed.Options
}

func mustProblem(t *testing.T, pack core.ConstraintSet, cover *matrix.Dense) *mixed.Problem {
	t.Helper()
	p, err := mixed.NewProblem(pack, cover)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mixedRefFamily builds instances that reach every place the mixed rule
// differs from Decision: N = max(n, m, d) with d the largest, the JL
// sketch at ε/2 (factored and sparse packing sets under the auto
// oracle), the ALO oracle fed x rather than x/μ, a zero-trace
// coordinate's covering-scaled start, and coordinates clamped to
// exactly their cap.
func mixedRefFamily(t *testing.T) []mixedRefCase {
	t.Helper()
	var cases []mixedRefCase

	// Dense diagonal LP with more covering rows than n or m.
	rng := rand.New(rand.NewPCG(91, 92))
	lp, err := gen.MixedCoveringLP(6, 5, 14, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := core.NewDenseSet(lp.A)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, mixedRefCase{name: "dense-lp-wide-cover", p: mustProblem(t, dense, lp.C), eps: 0.15, opts: mixed.Options{Seed: 41}})

	// Factored packing (JL at ε/2 under the auto oracle, and exact).
	rng = rand.New(rand.NewPCG(5, 6))
	orth, err := gen.OrthogonalRankOne(4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	ods, err := core.NewDenseSet(orth.A)
	if err != nil {
		t.Fatal(err)
	}
	fset, err := ods.Factorize(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	xref := make([]float64, 4)
	for i := range xref {
		xref[i] = 0.5 / fset.Trace(i)
	}
	fc := matrix.New(3, 4)
	for j := 0; j < 3; j++ {
		row := fc.Row(j)
		for i := range row {
			row[i] = 0.5 + rng.Float64()
		}
		matrix.VecScale(row, 1.5/matrix.VecDot(row, xref), row)
	}
	fp := mustProblem(t, fset, fc)
	cases = append(cases,
		mixedRefCase{name: "factored-jl", p: fp, eps: 0.2, opts: mixed.Options{Seed: 11}},
		mixedRefCase{name: "factored-exact", p: fp, eps: 0.2, opts: mixed.Options{Seed: 11, Oracle: core.OracleFactoredExact}},
	)

	// Sparse grouped-Laplacian packing with covering demands.
	rng = rand.New(rand.NewPCG(95, 96))
	g := graph.ErdosRenyi(12, 5.0/12, rng)
	ms, err := gen.MixedGraphCovering(g, 5, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sset, err := core.NewSparseSet(ms.A)
	if err != nil {
		t.Fatal(err)
	}
	// The generated rows are covered at the cold start already; raising
	// the demands fivefold makes the run move.
	matrix.VecScale(ms.C.Data, 0.2, ms.C.Data)
	cases = append(cases, mixedRefCase{name: "sparse-jl", p: mustProblem(t, sset, ms.C), eps: 0.2, opts: mixed.Options{Seed: 43}})

	// At m = 160 and ε = 0.8 the sketch at ε/2 has fewer rows than m.
	rng = rand.New(rand.NewPCG(97, 98))
	wide, err := gen.MixedGraphCovering(graph.ErdosRenyi(160, 3.0/160, rng), 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	wset, err := core.NewSparseSet(wide.A)
	if err != nil {
		t.Fatal(err)
	}
	matrix.VecScale(wide.C.Data, 0.2, wide.C.Data)
	cases = append(cases, mixedRefCase{name: "sparse-jl-sketched", p: mustProblem(t, wset, wide.C), eps: 0.8, opts: mixed.Options{Seed: 47}})

	// Covering-hungry spike: the cover rewards a coordinate whose cap
	// (1+ε)/λ_max(A₁) binds long before coverage is met.
	const m = 11
	a1 := matrix.New(m, m)
	a1.Set(0, 0, 1)
	a2 := matrix.New(m, m)
	for k := 1; k < m; k++ {
		a2.Set(k, k, 0.1)
	}
	hungry, err := core.NewDenseSet([]*matrix.Dense{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, mixedRefCase{name: "cap-fires", p: mustProblem(t, hungry, matrix.FromRows([][]float64{{0.3, 0.13}})), eps: 0.15})

	// A zero-trace coordinate that covers cheaply, next to one useless
	// on both sides.
	zt, err := core.NewDenseSet([]*matrix.Dense{matrix.Diag([]float64{0.5, 0}), matrix.New(2, 2), matrix.New(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, mixedRefCase{name: "zero-trace", p: mustProblem(t, zt, matrix.FromRows([][]float64{{0.1, 2, 0}})), eps: 0.1})

	// Every case under both engines, at the engine budget and at a
	// small cap.
	var out []mixedRefCase
	for _, c := range cases {
		for _, eng := range []core.EngineKind{core.EngineMMW, core.EngineALO} {
			for _, maxIter := range []int{0, 7} {
				cc := c
				cc.opts.Engine, cc.opts.MaxIter = eng, maxIter
				cc.name = fmt.Sprintf("%s/%s/maxiter%d", c.name, eng, maxIter)
				out = append(out, cc)
			}
		}
	}
	return out
}

func sameMixedResult(t *testing.T, name string, want, got *mixed.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Capped != want.Capped || got.Status != want.Status ||
		got.WarmStarted != want.WarmStarted || got.Engine != want.Engine {
		t.Fatalf("%s: iterations/capped/status/warm/engine %d/%d/%v/%v/%s, reference %d/%d/%v/%v/%s", name,
			got.Iterations, got.Capped, got.Status, got.WarmStarted, got.Engine,
			want.Iterations, want.Capped, want.Status, want.WarmStarted, want.Engine)
	}
	if math.Float64bits(got.MinCoverage) != math.Float64bits(want.MinCoverage) ||
		math.Float64bits(got.LambdaMax) != math.Float64bits(want.LambdaMax) {
		t.Fatalf("%s: coverage/λmax %v/%v, reference %v/%v", name, got.MinCoverage, got.LambdaMax, want.MinCoverage, want.LambdaMax)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: len(X) %d, reference %d", name, len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %v, reference %v", name, i, got.X[i], want.X[i])
		}
	}
}

// TestMixedMatchesReferenceLoop pins the mixed solver on the shared loop
// to the written-out copy of its former private loop, bit for bit: X,
// MinCoverage and LambdaMax as float64 bits, plus Iterations, Capped,
// Status and WarmStarted. Every case runs cold and warm (from a drifted
// copy of its cold answer, and from an unusable vector that must fall
// back cold), on a private workspace and on one shared with earlier
// runs, at GOMAXPROCS 1 and 8. The family must reach each place the
// mixed rule differs from Decision.
func TestMixedMatchesReferenceLoop(t *testing.T) {
	shared := work.New()
	reached := map[string]bool{}
	family := mixedRefFamily(t)
	for _, c := range family {
		t.Run(c.name, func(t *testing.T) {
			cold, _, err := referenceSolve(c.p, c.eps, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			drift := matrix.VecClone(cold.X)
			for i := range drift {
				drift[i] *= 1 + 0.3*float64(i%3-1)
			}
			poisoned := matrix.VecClone(cold.X)
			poisoned[0] = -1
			for _, start := range []struct {
				name string
				warm []float64
			}{{"cold", nil}, {"warm", drift}, {"poisoned", poisoned}} {
				opts := c.opts
				opts.WarmStart = start.warm
				want, ref, err := referenceSolve(c.p, c.eps, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 8} {
					for _, ws := range []*work.Workspace{nil, shared} {
						opts.Workspace = ws
						prev := runtime.GOMAXPROCS(procs)
						got, err := mixed.Solve(c.p, c.eps, opts)
						runtime.GOMAXPROCS(prev)
						if err != nil {
							t.Fatal(err)
						}
						sameMixedResult(t, fmt.Sprintf("%s start, GOMAXPROCS %d, shared workspace %v", start.name, procs, ws != nil), want, got)
					}
				}
				reached["warm start"] = reached["warm start"] || want.WarmStarted
				reached["inexact cap"] = reached["inexact cap"] || ref.inexact > 0
				reached["zero-trace start"] = reached["zero-trace start"] || (ref.guard[1] > 0 && math.IsInf(ref.guard[1], 1) && want.X[1] > 0)
				if opts.Engine == core.EngineALO && want.Iterations > 1 {
					reached["alo"] = true
				}
			}
		})
	}
	for _, c := range family {
		n, m := c.p.Pack.N(), c.p.Pack.Dim()
		if _, dense := c.p.Pack.(*core.DenseSet); !dense && c.opts.Oracle == core.OracleAuto && sketch.Rows(m, c.eps/2) < m {
			reached["sketch rows below m"] = true
		}
		if c.p.Cover.R > max(n, m) {
			reached["covering rows set N"] = true
		}
	}
	for _, b := range []string{"warm start", "inexact cap", "zero-trace start", "alo", "sketch rows below m", "covering rows set N"} {
		if !reached[b] {
			t.Errorf("the family never reaches %q", b)
		}
	}
}
