package serve

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/mixed"
	"repro/internal/store"
)

// psdpd serves one endpoint per algorithm of the paper: Algorithm 3.1
// (decision), the Lemma 2.2 search (maximize), the Appendix A pipeline
// (solve), and the §5 mixed packing/covering extension (mixed). Every
// rule that differs between them lives in one kindSpec below. The
// request pipeline (prepare), the routing key (ContentDigest), the
// routes, the batch dispatch, and the metric label sets all read this
// table, so the cache key and the routing key cannot drift apart.

// kindSpec is one solve kind's entry in the table.
type kindSpec struct {
	name    string
	payload payload
	// honours is the set of optional wire fields the kind's solver
	// reads. A request setting any other optional field is a 400: the
	// solver would ignore it, yet it would split the content address.
	honours wireField
	// resolveAuto makes the digest hash the engine "auto" resolves to,
	// resolved exactly as the solver entrypoint resolves it (same set,
	// same eps — mixed.Solve's run resolves it on its packing set),
	// so "auto" and the explicit name of its pick share one
	// content address. Kinds without it hash "auto" unresolved: maximize
	// resolves once at eps/4, not at the request's eps, and solve runs
	// that Maximize on the normalized set, not the request's, so a
	// top-level resolution would not match what the solver runs. Auto is
	// deterministic in the digested inputs, so the address stays sound
	// there, just unmerged.
	resolveAuto bool
	// deltaBase marks kinds /v1/delta can warm-start. Their solves of
	// sparse-packed sets leave a revision behind: only those can be
	// delta bases, since ApplyDelta edits sparse triplets.
	deltaBase bool
	// run solves a built request. o carries the effective options plus
	// the worker's context, workspace, and phase sink; base is the
	// revision to warm-start from (nil for a cold start).
	run func(b *built, o core.Options, base *store.Revision) (solved, error)
}

// solved is one finished solve: the response document, the warm-start
// payload its revision keeps, and whether the run actually started warm
// (a reshaped delta fails the solver's shape guard and runs cold).
type solved struct {
	resp        response
	rev         store.Revision
	warmStarted bool
}

// response is implemented by every solve response document.
type response interface{ iterCount() int }

// wireField is one optional solver field of Request, as a bit.
type wireField uint8

const (
	fieldScale wireField = 1 << iota
	fieldSketchEps
	fieldBucketed
	fieldTheoryExact

	allFields = fieldScale | fieldSketchEps | fieldBucketed | fieldTheoryExact
)

// optionalFields names each optional field and reports whether a
// request sets it to anything but its default.
var optionalFields = []struct {
	bit  wireField
	name string
	set  func(*Request) bool
}{
	{fieldScale, "scale", func(r *Request) bool { return r.scaleOrOne() != 1 }},
	{fieldSketchEps, "sketchEps", func(r *Request) bool { return r.SketchEps != 0 }},
	{fieldBucketed, "bucketed", func(r *Request) bool { return r.Bucketed }},
	{fieldTheoryExact, "theoryExact", func(r *Request) bool { return r.TheoryExact }},
}

// payload is one request document shape: whether it is a program or an
// instance, how it becomes a constraint set, and the representation
// labels the admission counters give the result, indexed by setIndex.
type payload struct {
	program bool
	reps    []string
	build   func(req *Request, b *built) error
}

var (
	instancePayload = payload{reps: []string{"dense", "factored", "sparse"}, build: buildInstance}
	mixedPayload    = payload{reps: []string{"mixed-dense", "mixed-factored", "mixed-sparse"}, build: buildMixed}
	programPayload  = payload{program: true, reps: []string{"program"}, build: buildProgram}
)

var kinds = []*kindSpec{
	{name: "decision", payload: instancePayload, honours: allFields, resolveAuto: true, deltaBase: true,
		run: func(b *built, o core.Options, base *store.Revision) (solved, error) {
			if base != nil {
				o.WarmStart = base.State
			}
			dr, err := core.DecisionPSDP(b.set, b.eps, o)
			if err != nil {
				return solved{}, err
			}
			return solved{decisionResponse(b.eps, dr), store.Revision{State: dr.Final}, dr.WarmStarted}, nil
		}},
	{name: "maximize", payload: instancePayload, honours: allFields,
		run: func(b *built, o core.Options, _ *store.Revision) (solved, error) {
			sol, err := core.MaximizePacking(b.set, b.eps, o)
			if err != nil {
				return solved{}, err
			}
			return solved{resp: maximizeResponse(b.eps, sol)}, nil
		}},
	{name: "solve", payload: programPayload, honours: allFields &^ fieldScale,
		run: func(b *built, o core.Options, _ *store.Revision) (solved, error) {
			cs, err := core.SolveCovering(b.prog, b.eps, o)
			if err != nil {
				return solved{}, err
			}
			return solved{resp: solveResponse(b.eps, cs)}, nil
		}},
	{name: "mixed", payload: mixedPayload, resolveAuto: true, deltaBase: true,
		run: func(b *built, o core.Options, base *store.Revision) (solved, error) {
			mo := mixed.Options{MaxIter: o.MaxIter, Seed: o.Seed, Oracle: o.Oracle, Engine: o.Engine,
				Ctx: o.Ctx, Workspace: o.Workspace, Phases: o.Phases}
			if base != nil {
				mo.WarmStart = base.MixedX
			}
			mr, err := mixed.Solve(b.prob, b.eps, mo)
			if err != nil {
				return solved{}, err
			}
			return solved{mixedResponse(b.eps, mr), store.Revision{MixedX: mr.X}, mr.WarmStarted}, nil
		}},
}

func decisionResponse(eps float64, dr *core.DecisionResult) *DecisionResponse {
	gap := math.Inf(1)
	if dr.Lower > 0 {
		gap = dr.Upper/dr.Lower - 1
	}
	return &DecisionResponse{
		Kind:         "decision",
		Eps:          eps,
		Outcome:      dr.Outcome.String(),
		Iterations:   dr.Iterations,
		Lower:        Num(dr.Lower),
		Upper:        Num(dr.Upper),
		RelativeGap:  Num(gap),
		X:            dr.DualX,
		LambdaMaxPsi: Num(dr.LambdaMaxPsi),
		MaxPsiNorm:   Num(dr.MaxPsiNorm),
	}
}

func maximizeResponse(eps float64, sol *core.Solution) *MaximizeResponse {
	return &MaximizeResponse{
		Kind:            "maximize",
		Eps:             eps,
		Value:           Num(sol.Value),
		Lower:           Num(sol.Lower),
		Upper:           Num(sol.Upper),
		RelativeGap:     Num(sol.Gap()),
		X:               sol.X,
		DecisionCalls:   sol.DecisionCalls,
		TotalIterations: sol.TotalIterations,
	}
}

func mixedResponse(eps float64, mr *mixed.Result) *MixedResponse {
	return &MixedResponse{
		Kind:        "mixed",
		Eps:         eps,
		Status:      mr.Status.String(),
		Engine:      mr.Engine,
		Iterations:  mr.Iterations,
		Capped:      mr.Capped,
		WarmStarted: mr.WarmStarted,
		MinCoverage: Num(mr.MinCoverage),
		LambdaMax:   Num(mr.LambdaMax),
		X:           mr.X,
	}
}

func solveResponse(eps float64, cs *core.CoveringSolution) *SolveResponse {
	return &SolveResponse{
		Kind:            "solve",
		Eps:             eps,
		Lower:           Num(cs.Lower),
		Upper:           Num(cs.Upper),
		DualX:           cs.DualX,
		Objective:       Num(cs.Objective),
		DecisionCalls:   cs.DecisionCalls,
		TotalIterations: cs.TotalIterations,
	}
}

// Kinds lists the solve kinds psdpd serves, one POST /v1/<kind> route
// each, in table order.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name
	}
	return out
}

func kindNamed(name string) *kindSpec {
	for _, k := range kinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// built is a validated request, assembled and content-addressed:
// everything prepare needs to admit and solve it, and everything
// ContentDigest needs to route it.
type built struct {
	k   *kindSpec
	eps float64
	// opts holds the effective options: the default engine is
	// substituted for an empty engine field.
	opts core.Options
	set  core.ConstraintSet // the packing set; nil for programs
	prob *mixed.Problem     // mixed only; prob.Pack is set
	prog *core.Program      // programs only
	rep  string
	// oracle is the resolved oracle the digest hashes, so "oracle
	// omitted", "auto" and the explicit name of the auto choice share
	// one content address (they provably produce identical bytes).
	oracle core.OracleKind
	// engine is the engine the digest hashes (see resolveAuto). It is
	// also the admission counters' engine label, so /statsz agrees with
	// the cache identity about what a request ran.
	engine core.EngineKind
	d      digest
}

// buildRequest validates req as the named kind, builds its payload, and
// digests it. Everything that can fail from bad client input fails
// here, before any queue slot is taken and before any admission counter
// moves. defaultEngine substitutes for an empty engine field.
func buildRequest(kind string, req *Request, defaultEngine core.EngineKind) (*built, error) {
	k := kindNamed(kind)
	if k == nil {
		return nil, fmt.Errorf("serve: unknown request kind %q", kind)
	}
	if math.IsNaN(req.Eps) || req.Eps <= 0 || req.Eps >= 1 {
		return nil, fmt.Errorf("serve: eps = %v out of (0, 1)", req.Eps)
	}
	opts, err := req.coreOptions()
	if err != nil {
		return nil, err
	}
	if req.Engine == "" {
		opts.Engine = defaultEngine
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	has, hasName, other, otherName := req.Instance != nil, "an instance", req.Program != nil, "a program"
	if k.payload.program {
		has, hasName, other, otherName = other, otherName, has, hasName
	}
	if !has {
		return nil, fmt.Errorf("serve: %s request needs %s", kind, hasName)
	}
	if other {
		return nil, fmt.Errorf("serve: %s request cannot carry %s", kind, otherName)
	}
	for _, f := range optionalFields {
		if k.honours&f.bit == 0 && f.set(req) {
			return nil, fmt.Errorf("serve: %s requests do not support %s", kind, f.name)
		}
	}
	b := &built{k: k, eps: req.Eps, opts: opts, engine: opts.Engine}
	if err := k.payload.build(req, b); err != nil {
		return nil, err
	}
	// Resolving here front-loads the oracle/representation mismatch the
	// solver would otherwise report from inside the pool, so it costs no
	// queue slot and maps to 400 rather than 500. A program normalizes
	// to a dense set.
	set := b.set
	if set == nil {
		set = (*core.DenseSet)(nil)
	}
	if b.oracle, err = core.ResolveOracle(opts.Oracle, set); err != nil {
		return nil, fmt.Errorf("serve: oracle %q: %w", req.Oracle, err)
	}
	b.rep = k.payload.reps[setIndex(b.set)]
	if k.resolveAuto {
		b.engine = core.ResolveEngine(opts.Engine, b.set, req.Eps)
	}
	b.d, err = requestDigest(b, req)
	return b, err
}

func buildInstance(req *Request, b *built) error {
	set, err := instio.Build(req.Instance)
	if err != nil {
		return err
	}
	if scale := req.scaleOrOne(); scale != 1 {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
			return fmt.Errorf("serve: scale = %v must be positive and finite", req.Scale)
		}
		set = set.WithScale(scale)
		// Build checked traces before scaling; a huge scale can push
		// them to +Inf here, which would silently zero coordinates in
		// the solver's initial point — and then be cached as a 200.
		for i := 0; i < set.N(); i++ {
			if tr := set.Trace(i); math.IsNaN(tr) || math.IsInf(tr, 0) {
				return fmt.Errorf("serve: scale %v overflows constraint %d trace to %v", scale, i, tr)
			}
		}
	}
	b.set = set
	return nil
}

func buildMixed(req *Request, b *built) (err error) {
	if b.prob, err = instio.BuildMixed(req.Instance); err == nil {
		b.set = b.prob.Pack
	}
	return err
}

func buildProgram(req *Request, b *built) (err error) {
	b.prog, err = req.Program.build()
	return err
}

// setIndex orders the representations for payload.reps: dense, then
// factored, then sparse. A nil set is the program path, whose
// normalization always yields a dense instance.
func setIndex(set core.ConstraintSet) int {
	switch set.(type) {
	case *core.FactoredSet:
		return 1
	case *core.SparseSet:
		return 2
	}
	return 0
}
