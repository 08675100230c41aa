package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mixed"
	"repro/internal/parallel"
	"repro/internal/work"
)

// libClass is one kind of library call in a solve workload: what it
// calls, with which engine and oracle, at which ε and scale, on which
// instance family.
type libClass struct {
	name   string
	kind   string // "maximize", "decision" or "mixed"
	engine core.EngineKind
	oracle core.OracleKind
	eps    float64
	scale  float64 // decision calls only; the instance is scaled by it
	gen    func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error)
}

// libOp is one call with its own instance.
type libOp struct {
	class *libClass
	set   core.ConstraintSet // scaled for decision calls
	prob  *mixed.Problem     // mixed calls only
	seed  uint64
}

type libOut struct {
	dec *core.DecisionResult
	sol *core.Solution
	mix *mixed.Result
	err error
}

// call runs the op; opts carries the workspace and, in a traced run,
// the phase and work/depth recorders.
func (op *libOp) call(opts core.Options) libOut {
	c := op.class
	opts.Engine, opts.Oracle, opts.Seed = c.engine, c.oracle, op.seed
	switch c.kind {
	case "maximize":
		sol, err := core.MaximizePacking(op.set, c.eps, opts)
		return libOut{sol: sol, err: err}
	case "decision":
		dr, err := core.DecisionPSDP(op.set, c.eps, opts)
		return libOut{dec: dr, err: err}
	default:
		mr, err := mixed.Solve(op.prob, c.eps, mixed.Options{
			Engine: c.engine, Oracle: c.oracle, Seed: op.seed, MaxIter: opts.MaxIter})
		return libOut{mix: mr, err: err}
	}
}

// verifyTol is the slack VerifyDual allows on λ_max(Σ xᵢAᵢ) ≤ 1.
const verifyTol = 1e-6

// check re-verifies an output independently of the solver. It returns
// the certified Upper/Lower ratio when the op returns a bracket (0
// otherwise) and how long the witness verification took.
func (op *libOp) check(out libOut) (ratio float64, verify time.Duration, err error) {
	if out.err != nil {
		return 0, 0, out.err
	}
	c := op.class
	switch c.kind {
	case "maximize":
		s := out.sol
		if !(s.Lower <= s.Upper) {
			return 0, 0, fmt.Errorf("bracket [%g, %g] inverted", s.Lower, s.Upper)
		}
		if g := s.Gap(); !(g <= c.eps) {
			return 0, 0, fmt.Errorf("gap %g exceeds eps %g", g, c.eps)
		}
		verify, err = verifyWitness(op.set, s.X)
		return s.Upper / s.Lower, verify, err
	case "decision":
		d := out.dec
		if !(d.Lower <= d.Upper) || d.Lower <= 0 {
			return 0, 0, fmt.Errorf("bracket [%g, %g] invalid", d.Lower, d.Upper)
		}
		if d.Outcome == core.OutcomeDual {
			verify, err = verifyWitness(op.set, d.DualX)
		}
		return d.Upper / d.Lower, verify, err
	default:
		return 0, 0, checkMixed(op.prob, c.eps, out.mix.X)
	}
}

// verifyWitness requires x to pass VerifyDual on set.
func verifyWitness(set core.ConstraintSet, x []float64) (time.Duration, error) {
	t0 := time.Now()
	cert, err := core.VerifyDual(set, x, verifyTol)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if !cert.Feasible {
		return d, fmt.Errorf("witness infeasible: λ_max = %.9g", cert.LambdaMax)
	}
	return d, nil
}

// checkMixed re-checks a mixed answer: coverage min (Cx) ≥ 1−ε and
// λ_max(Σ xᵢAᵢ) ≤ 1+10ε, both recomputed here.
func checkMixed(p *mixed.Problem, eps float64, x []float64) error {
	if len(x) != p.Pack.N() {
		return fmt.Errorf("mixed: x has %d entries, want %d", len(x), p.Pack.N())
	}
	cov := math.Inf(1)
	for j := 0; j < p.Cover.R; j++ {
		cov = math.Min(cov, matrix.VecDot(p.Cover.Row(j), x))
	}
	if !(cov >= 1-eps) {
		return fmt.Errorf("mixed: coverage %g < 1-eps", cov)
	}
	lam, err := core.LambdaMaxPsi(p.Pack, x)
	if err != nil {
		return err
	}
	if !(lam <= 1+10*eps) {
		return fmt.Errorf("mixed: λ_max %g > 1+10eps", lam)
	}
	return nil
}

// sameOut reports whether two runs of the same op returned the same
// answer bit for bit (the solver is deterministic given its seed).
func sameOut(a, b libOut) bool {
	switch {
	case a.sol != nil && b.sol != nil:
		return a.sol.Lower == b.sol.Lower && a.sol.Upper == b.sol.Upper && slices.Equal(a.sol.X, b.sol.X)
	case a.dec != nil && b.dec != nil:
		return a.dec.Lower == b.dec.Lower && a.dec.Upper == b.dec.Upper && slices.Equal(a.dec.DualX, b.dec.DualX)
	case a.mix != nil && b.mix != nil:
		return a.mix.Status == b.mix.Status && slices.Equal(a.mix.X, b.mix.X)
	}
	return false
}

func denseGen(n, m int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		set, err := core.NewDenseSet(gen.RandomDense(n, m, 0, rng).A)
		return set, nil, err
	}
}

func mixedLPGen(n, m, d int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		lp, err := gen.MixedCoveringLP(n, m, d, 0.4, rng)
		if err != nil {
			return nil, nil, err
		}
		set, err := core.NewDenseSet(lp.A)
		return set, lp.C, err
	}
}

// erGraph is an Erdős–Rényi graph with mean degree deg, the family
// psdpgen uses for its graph instances.
func erGraph(m int, deg float64, rng *rand.Rand) *graph.Graph {
	return graph.ErdosRenyi(m, deg/float64(m), rng)
}

func edgeSparseGen(m int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		sp, err := gen.SparseEdgePacking(erGraph(m, 4, rng))
		if err != nil {
			return nil, nil, err
		}
		set, err := core.NewSparseSet(sp.A)
		return set, nil, err
	}
}

func groupedSparseGen(m, groups int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		sp, err := gen.SparseGroupedLaplacians(erGraph(m, 6, rng), groups, rng)
		if err != nil {
			return nil, nil, err
		}
		set, err := core.NewSparseSet(sp.A)
		return set, nil, err
	}
}

func edgeFactoredGen(m int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		f, err := gen.GraphEdgePacking(erGraph(m, 4, rng))
		if err != nil {
			return nil, nil, err
		}
		set, err := core.NewFactoredSet(f.Q)
		return set, nil, err
	}
}

func randomFactoredGen(n, m, cols, nnz int) func(*rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
	return func(rng *rand.Rand) (core.ConstraintSet, *matrix.Dense, error) {
		f, err := gen.RandomFactored(n, m, cols, nnz, rng)
		if err != nil {
			return nil, nil, err
		}
		set, err := core.NewFactoredSet(f.Q)
		return set, nil, err
	}
}

// libWorkload is a solve workload: one caller cycling a fixed list of
// library calls. The list is made of rounds, each holding one op of
// every class in order, and every op has an instance of its own. A
// run that gets through the list starts it again, and repeated ops
// must reproduce their first answers.
type libWorkload struct {
	classes []*libClass
	// rounds is the length of the list. It does not depend on the run
	// length, and is chosen so that a 30 s run on a 2-core box gets
	// through the list at least once, so that cert_gap covers every
	// op of it, and sees as many distinct instances as it can, which
	// keeps the spread between seeds down.
	rounds int
}

// warmIters caps the warm-up calls: enough to size every workspace
// buffer and touch every code path, at a fraction of a full call.
const warmIters = 64

// generate builds the first rounds of the op list for seed.
func (w *libWorkload) generate(seed uint64, rounds int) ([]*libOp, error) {
	rng := rand.New(rand.NewPCG(seed, 0x11b))
	ops := make([]*libOp, 0, rounds*len(w.classes))
	for r := 0; r < rounds; r++ {
		for _, c := range w.classes {
			set, cover, err := c.gen(rng)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			op := &libOp{class: c, set: set, seed: rng.Uint64()}
			switch c.kind {
			case "decision":
				op.set = set.WithScale(c.scale)
			case "mixed":
				if op.prob, err = mixed.NewProblem(set, cover); err != nil {
					return nil, fmt.Errorf("%s: %w", c.name, err)
				}
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// setup builds the op list and a warm workspace; it is what setup_s
// times.
func (w *libWorkload) setup(seed uint64) ([]*libOp, *work.Workspace, error) {
	ops, err := w.generate(seed, w.rounds)
	if err != nil {
		return nil, nil, err
	}
	ws := work.New()
	for _, op := range ops[:len(w.classes)] {
		if out := op.call(core.Options{Workspace: ws, MaxIter: warmIters}); out.err != nil {
			return nil, nil, fmt.Errorf("warm-up %s: %w", op.class.name, out.err)
		}
	}
	return ops, ws, nil
}

// libRec is one timed call.
type libRec struct {
	op     int
	dur    time.Duration
	out    libOut
	phases core.SolveStats
	work   int64
	depth  int64
}

// libWindow is the outcome of one timed window.
type libWindow struct {
	recs    []libRec
	elapsed time.Duration
	cpu     time.Duration
	misses  int
	mem     memDelta
}

// window runs ops in a closed loop for d. With a tracer it records a
// root span per op and a child span around the library call, and
// collects solver phases and work/depth.
func (w *libWorkload) window(ops []*libOp, ws *work.Workspace, d time.Duration, tr *Tracer) *libWindow {
	res := &libWindow{}
	misses0 := ws.Misses()
	mem0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(ops)
		op := ops[k]
		if tr != nil {
			res.recs = append(res.recs, w.tracedCall(tr, op, k, ws, int64(len(res.recs))))
			continue
		}
		t0 := time.Now()
		out := op.call(core.Options{Workspace: ws})
		res.recs = append(res.recs, libRec{op: k, dur: time.Since(t0), out: out})
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.mem = readMem().sub(mem0)
	res.misses = ws.Misses() - misses0
	return res
}

// tracedCall runs one op under a root span that covers the whole
// iteration and a child span around the library call, collecting the
// solver's phases and work/depth.
func (w *libWorkload) tracedCall(tr *Tracer, op *libOp, k int, ws *work.Workspace, opID int64) libRec {
	root, r0 := tr.NewID(), tr.Now()
	var st parallel.Stats
	opts := core.Options{Workspace: ws, Phases: &core.SolveStats{}, Stats: &st}
	name := "core." + op.class.kind
	if op.class.kind == "mixed" {
		name = "mixed.solve"
	}
	s0 := tr.Now()
	t0 := time.Now()
	out := op.call(opts)
	dur := time.Since(t0)
	tr.Add(Span{ID: tr.NewID(), Parent: root, Op: opID, Name: name, Tag: op.class.name, Start: s0, End: tr.Now()})
	rec := libRec{op: k, dur: dur, out: out, phases: *opts.Phases, work: st.Work(), depth: st.Depth()}
	tr.Add(Span{ID: root, Op: opID, Name: rootSpan, Tag: op.class.name, Start: r0, End: tr.Now()})
	return rec
}

// checked is the verdict on a window's outputs.
type checked struct {
	ok      []bool
	ratios  []float64
	verify  []time.Duration
	failed  int
	reasons []string
}

func (c *checked) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// check verifies every output of a window, after the window: each
// answer against its own instance, and each repeated op against the
// first answer it gave.
func (w *libWorkload) check(ops []*libOp, win *libWindow) *checked {
	c := &checked{ok: make([]bool, len(win.recs))}
	first := make(map[int]libOut)
	for i, r := range win.recs {
		op := ops[r.op]
		ratio, v, err := op.check(r.out)
		if err != nil {
			c.fail("op %d (%s): %v", i, op.class.name, err)
			continue
		}
		f, repeat := first[r.op]
		if repeat && !sameOut(f, r.out) {
			c.fail("op %d (%s): repeat differs from first answer", i, op.class.name)
			continue
		}
		first[r.op] = r.out
		c.ok[i] = true
		// A repeat gives the same bracket again, so cert_gap counts
		// each op of the list once.
		if ratio > 0 && !repeat {
			c.ratios = append(c.ratios, ratio)
		}
		if v > 0 {
			c.verify = append(c.verify, v)
		}
	}
	return c
}

// run executes the workload and returns its report.
func (w *libWorkload) run(cfg runConfig) (*report, error) {
	var setups []float64
	var ops []*libOp
	var ws *work.Workspace
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if ops, ws, err = w.setup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep := newReport()
	rep.setupS = median(setups)
	if !cfg.trace {
		win := w.window(ops, ws, secs(cfg.seconds), nil)
		c := w.check(ops, win)
		rep.addEndToEnd(libLatencies(win, c), win.elapsed, win.cpu, len(win.recs), c)
		w.noteClasses(rep, ops, win)
		return rep, nil
	}
	// Traced run: the first half untraced, for the overhead baseline,
	// then the same op list again with spans.
	half := secs(cfg.seconds / 2)
	base := w.window(ops, ws, half, nil)
	cb := w.check(ops, base)
	tr := newTracer()
	win := w.window(ops, ws, half, tr)
	c := w.check(ops, win)
	rep.attempted = len(base.recs) + len(win.recs)
	rep.failed = cb.failed + c.failed
	rep.reasons = append(cb.reasons, c.reasons...)
	spans, err := writeAndReload(tr, cfg.spansPath)
	if err != nil {
		return nil, err
	}
	w.layerMetrics(rep, ops, win, c, spans)
	if err := probeKernels(rep, cfg.seed); err != nil {
		return nil, err
	}
	rep.traceOverhead(median(libLatencies(base, cb)), median(libLatencies(win, c)))
	return rep, nil
}

// noteClasses notes each class's op count and median latency.
func (w *libWorkload) noteClasses(rep *report, ops []*libOp, win *libWindow) {
	lat := map[*libClass][]float64{}
	for _, r := range win.recs {
		lat[ops[r.op].class] = append(lat[ops[r.op].class], ms(r.dur))
	}
	for _, c := range w.classes {
		rep.notes = append(rep.notes, fmt.Sprintf("%-42s %4d ops, p50 %9.3f ms", c.name, len(lat[c]), median(lat[c])))
	}
}

// libLatencies lists the latencies of the verified ops, in ms.
func libLatencies(win *libWindow, c *checked) []float64 {
	var out []float64
	for i, r := range win.recs {
		if c.ok[i] {
			out = append(out, ms(r.dur))
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced window.
func (w *libWorkload) layerMetrics(rep *report, ops []*libOp, win *libWindow, c *checked, spans []Span) {
	var coreOps, mixedOps int
	var iters, calls, mixIters int
	var fracR, otherNS, coreNS, mixNS float64
	var ph core.SolveStats
	var workSum, depthSum int64
	for _, r := range win.recs {
		op := ops[r.op]
		if op.class.kind == "mixed" {
			mixedOps++
			mixNS += float64(r.dur)
			if r.out.mix != nil {
				mixIters += r.out.mix.Iterations
			}
			continue
		}
		coreOps++
		it, nc := 0, 1
		if r.out.sol != nil {
			it, nc = r.out.sol.TotalIterations, r.out.sol.DecisionCalls
		} else if r.out.dec != nil {
			it = r.out.dec.Iterations
		}
		iters += it
		calls += nc
		if prm, err := core.ParamsFor(op.set.N(), op.set.Dim(), op.class.eps); err == nil && nc > 0 {
			fracR += float64(it) / float64(nc) / float64(prm.R)
		}
		ph.Merge(r.phases)
		coreNS += float64(r.dur)
		otherNS += float64(r.dur) - float64(r.phases.OracleNS+r.phases.UpdateNS+r.phases.BookkeepNS)
		workSum += r.work
		depthSum += r.depth
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	rep.set("core.iterations", per(float64(iters), coreOps), "count")
	rep.set("core.iter_frac_R", per(fracR, coreOps), "ratio")
	rep.set("core.decision_calls", per(float64(calls), coreOps), "count")
	rep.set("core.oracle_ms", per(float64(ph.OracleNS)/1e6, coreOps), "ms")
	rep.set("core.expm_ms", per(float64(ph.ExpmNS)/1e6, coreOps), "ms")
	rep.set("core.update_ms", per(float64(ph.UpdateNS)/1e6, coreOps), "ms")
	rep.set("core.bookkeep_ms", per(float64(ph.BookkeepNS)/1e6, coreOps), "ms")
	rep.set("core.other_ms", per(otherNS/1e6, coreOps), "ms")
	rep.set("core.ms_per_iter", per(coreNS/1e6, iters), "ms")
	var vsum time.Duration
	for _, v := range c.verify {
		vsum += v
	}
	rep.set("core.verify_ms", per(ms(vsum), len(c.verify)), "ms")
	rep.set("mixed.iterations", per(float64(mixIters), mixedOps), "count")
	rep.set("mixed.solve_ms", per(mixNS/1e6, mixedOps), "ms")
	rep.set("parallel.work_mflop", per(float64(workSum)/1e6, coreOps), "Mflop")
	rep.set("parallel.depth", per(float64(depthSum), coreOps), "count")
	rep.set("parallel.depth_per_iter", per(float64(depthSum), iters), "count")
	rep.set("parallel.achieved_gflops", per(float64(workSum), int(ph.OracleNS+ph.UpdateNS)), "Gflop/s")
	n := len(win.recs)
	rep.set("work.misses_per_op", per(float64(win.misses), n), "count")
	rep.runtimeMetrics(win.mem, n)
	rep.spanMetrics(spans)
}

// denseSolve is the dense-kernel workload.
func denseSolve() *libWorkload {
	return &libWorkload{
		rounds: 48,
		classes: []*libClass{
			{name: "maximize-mmw-dense-8x8", kind: "maximize", engine: core.EngineMMW, oracle: core.OracleDenseExact, eps: 0.25, gen: denseGen(8, 8)},
			{name: "maximize-alo-dense-8x8", kind: "maximize", engine: core.EngineALO, oracle: core.OracleDenseExact, eps: 0.2, gen: denseGen(8, 8)},
			{name: "mixed-mmw-lp-20x24", kind: "mixed", engine: core.EngineMMW, oracle: core.OracleDenseExact, eps: 0.1, gen: mixedLPGen(20, 24, 12)},
			{name: "maximize-mmw-dense-6x10", kind: "maximize", engine: core.EngineMMW, oracle: core.OracleDenseExact, eps: 0.2, gen: denseGen(6, 10)},
			{name: "maximize-alo-dense-6x10", kind: "maximize", engine: core.EngineALO, oracle: core.OracleDenseExact, eps: 0.25, gen: denseGen(6, 10)},
			{name: "mixed-alo-lp-20x24", kind: "mixed", engine: core.EngineALO, oracle: core.OracleDenseExact, eps: 0.1, gen: mixedLPGen(20, 24, 12)},
		},
	}
}

// sparseSolve is Theorem 4.1's nearly-linear path.
func sparseSolve() *libWorkload {
	return &libWorkload{
		rounds: 24,
		classes: []*libClass{
			{name: "decision-mmw-jl-edge-sparse-12", kind: "decision", engine: core.EngineMMW, oracle: core.OracleFactoredJL, eps: 0.2, scale: 1, gen: edgeSparseGen(12)},
			{name: "decision-alo-exact-edge-sparse-12", kind: "decision", engine: core.EngineALO, oracle: core.OracleFactoredExact, eps: 0.2, scale: 2, gen: edgeSparseGen(12)},
			{name: "decision-mmw-exact-grouped-sparse-16", kind: "decision", engine: core.EngineMMW, oracle: core.OracleFactoredExact, eps: 0.2, scale: 1, gen: groupedSparseGen(16, 8)},
			{name: "decision-alo-jl-grouped-sparse-16", kind: "decision", engine: core.EngineALO, oracle: core.OracleFactoredJL, eps: 0.2, scale: 0.5, gen: groupedSparseGen(16, 8)},
			{name: "decision-mmw-exact-edge-factored-12", kind: "decision", engine: core.EngineMMW, oracle: core.OracleFactoredExact, eps: 0.2, scale: 1, gen: edgeFactoredGen(12)},
			{name: "decision-alo-jl-edge-factored-12", kind: "decision", engine: core.EngineALO, oracle: core.OracleFactoredJL, eps: 0.2, scale: 2, gen: edgeFactoredGen(12)},
			{name: "decision-mmw-jl-random-factored-12x16", kind: "decision", engine: core.EngineMMW, oracle: core.OracleFactoredJL, eps: 0.2, scale: 1, gen: randomFactoredGen(12, 16, 2, 3)},
			{name: "decision-alo-exact-random-factored-12x16", kind: "decision", engine: core.EngineALO, oracle: core.OracleFactoredExact, eps: 0.2, scale: 1, gen: randomFactoredGen(12, 16, 2, 3)},
		},
	}
}
