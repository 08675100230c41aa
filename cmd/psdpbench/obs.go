package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"

	psdp "repro"
	"repro/internal/benchfile"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Observability overhead mode (-section obs): proves the
// "zero-overhead" claim of the metrics layer with numbers, and gates
// the parts that must be exactly zero.
//
// Two measurements, each telemetry-on vs telemetry-off, interleaved
// (timeOps minima) so drift hits both variants equally:
//
//   - Solver: end-to-end Decision calls with Options.Phases plus an
//     OnIteration callback writing one obs counter, gauge, and
//     histogram per iteration — the full per-iteration telemetry a
//     served solve pays — against the identical solve with neither.
//     GATE: the telemetry variant adds zero heap allocations per call
//     on the dense and sparse-exact paths (the steady-state zero-alloc
//     contract survives with metrics enabled).
//   - Serve: requests through Server.ServeHTTP on the cache-hit path
//     (middleware, request IDs, e2e histograms, admission counters all
//     firing) with metrics enabled vs Config.DisableMetrics.
//
// Wall-clock ratios are recorded in the report and gated only loosely
// (atomics on a hot path cost nanoseconds, but CI machines are noisy;
// a tight timing gate would flake where the alloc gate cannot).

// obsSolverCase is one solver overhead measurement.
type obsSolverCase struct {
	Case      string  `json:"case"`
	N         int     `json:"n"`
	M         int     `json:"m"`
	Iters     int     `json:"iterations"`
	NsOff     float64 `json:"ns_per_call_off"`
	NsOn      float64 `json:"ns_per_call_on"`
	Ratio     float64 `json:"ratio_on_off"`
	AllocsOff float64 `json:"allocs_per_call_off"`
	AllocsOn  float64 `json:"allocs_per_call_on"`
	// ExtraAllocs = AllocsOn − AllocsOff: the whole point. Zero means
	// phase capture + per-iteration metric writes allocate nothing.
	ExtraAllocs float64 `json:"extra_allocs_per_call"`
}

// obsServeResult is the serving-path overhead measurement.
type obsServeResult struct {
	NsOff  float64 `json:"ns_per_request_off"`
	NsOn   float64 `json:"ns_per_request_on"`
	RpsOff float64 `json:"requests_per_sec_off"`
	RpsOn  float64 `json:"requests_per_sec_on"`
	Ratio  float64 `json:"ratio_on_off"`
}

// obsReport is the "obs" section of BENCH_psdp.json.
type obsReport struct {
	GoVersion string          `json:"go_version"`
	Procs     int             `json:"gomaxprocs"`
	Solver    []obsSolverCase `json:"solver"`
	Serve     obsServeResult  `json:"serve"`
}

// solverRatioGate and serveRatioGate bound the on/off wall-clock ratio.
// Deliberately loose — the hard guarantee is the alloc gate; these only
// catch a metrics layer that somehow grew a lock or a syscall into the
// hot path.
const (
	solverRatioGate = 1.25
	serveRatioGate  = 1.35
)

func runObsBench(path string, quick bool, seed uint64) error {
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	rep := obsReport{GoVersion: runtime.Version(), Procs: origProcs}
	var gateErrs []string

	for _, c := range obsSolverCases(quick, seed) {
		res := measureObsSolver(c)
		rep.Solver = append(rep.Solver, res)
		fmt.Printf("obs solver %-13s off %11.0f ns/call  on %11.0f ns/call  ratio %.3f  extra allocs %+.1f\n",
			res.Case, res.NsOff, res.NsOn, res.Ratio, res.ExtraAllocs)
		// Allow a fraction of an alloc of MemStats jitter; the real
		// signal of a broken contract is ≥ 1 alloc per call (and a
		// per-iteration alloc shows up as Iters per call).
		if res.ExtraAllocs > 0.5 {
			gateErrs = append(gateErrs, fmt.Sprintf(
				"%s: telemetry adds %.1f allocs/call, want 0", res.Case, res.ExtraAllocs))
		}
		if res.Ratio > solverRatioGate {
			gateErrs = append(gateErrs, fmt.Sprintf(
				"%s: telemetry-on solve is %.2fx the off cost (gate %.2fx)", res.Case, res.Ratio, solverRatioGate))
		}
	}

	runtime.GOMAXPROCS(origProcs) // solver cases pin to 1; serve runs at full width
	sres, err := measureObsServe(seed)
	if err != nil {
		return err
	}
	rep.Serve = sres
	fmt.Printf("obs serve  off %8.0f req/s  on %8.0f req/s  ratio %.3f\n",
		sres.RpsOff, sres.RpsOn, sres.Ratio)
	if sres.Ratio > serveRatioGate {
		gateErrs = append(gateErrs, fmt.Sprintf(
			"serve: metrics-on request path is %.2fx the off cost (gate %.2fx)", sres.Ratio, serveRatioGate))
	}

	if err := benchfile.Merge(path, map[string]any{"obs": &rep}); err != nil {
		return err
	}
	fmt.Printf("wrote %s (obs section)\n", path)
	for _, g := range gateErrs {
		fmt.Fprintf(os.Stderr, "psdpbench: GATE: %s\n", g)
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("%d observability overhead gate violations", len(gateErrs))
	}
	return nil
}

// obsBenchCase bundles a constraint set with the fixed-budget options
// its overhead run uses.
type obsBenchCase struct {
	name  string
	set   psdp.ConstraintSet
	iters int
	opts  psdp.Options
}

func obsSolverCases(quick bool, seed uint64) []obsBenchCase {
	denseIters, sparseIters := 120, 40
	if quick {
		denseIters, sparseIters = 40, 20
	}
	var cases []obsBenchCase
	{
		rng := rand.New(rand.NewPCG(seed, seed+1))
		inst := gen.RandomDense(32, 48, 8, rng)
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			panic(err)
		}
		cases = append(cases, obsBenchCase{
			name: "dense-exact", set: set.WithScale(0.25), iters: denseIters,
			opts: psdp.Options{Seed: 1, TheoryExact: true, MaxIter: denseIters},
		})
	}
	{
		rng := rand.New(rand.NewPCG(seed+2, seed+3))
		g := graph.ErdosRenyi(64, 4.0/64, rng)
		inst, err := gen.SparseEdgePacking(g)
		if err != nil {
			panic(err)
		}
		set, err := psdp.NewSparseSet(inst.A)
		if err != nil {
			panic(err)
		}
		cases = append(cases, obsBenchCase{
			name: "sparse-exact", set: set.WithScale(0.1), iters: sparseIters,
			opts: psdp.Options{Seed: 3, Oracle: psdp.OracleFactoredExact, TheoryExact: true, MaxIter: sparseIters},
		})
	}
	return cases
}

func measureObsSolver(c obsBenchCase) obsSolverCase {
	// Two pinned workspaces, so the variants never trade warm buffers.
	wsOff, wsOn := psdp.NewWorkspace(), psdp.NewWorkspace()

	offOpts := c.opts
	offOpts.Workspace = wsOff
	off := func() {
		if _, err := psdp.Decision(c.set, 0.25, offOpts); err != nil {
			panic(err)
		}
	}

	// Telemetry on: phase capture plus per-iteration obs writes — the
	// registry, stats struct, and callback all preallocated, exactly as
	// the serve layer holds them.
	reg := obs.NewRegistry()
	iterC := reg.Counter("bench_iterations_total", "x")
	lamG := reg.Gauge("bench_lambda_max", "x")
	normH := reg.Histogram("bench_xnorm", "x", obs.ExpBuckets(0.001, 4, 12))
	var st psdp.SolveStats
	onOpts := c.opts
	onOpts.Workspace = wsOn
	onOpts.Phases = &st
	onOpts.OnIteration = func(info psdp.IterationInfo) bool {
		iterC.Inc()
		lamG.Set(info.LambdaMax)
		normH.Observe(info.XNorm1)
		return true
	}
	on := func() {
		if _, err := psdp.Decision(c.set, 0.25, onOpts); err != nil {
			panic(err)
		}
	}

	setProcs(1)
	ts := timeOps([]timedOp{{op: off, procs: 1}, {op: on, procs: 1}})
	const calls = 8
	aOff, _ := allocsPerOp(off, calls)
	aOn, _ := allocsPerOp(on, calls)
	res := obsSolverCase{
		Case: c.name, N: c.set.N(), M: c.set.Dim(), Iters: c.iters,
		NsOff: ts[0], NsOn: ts[1],
		AllocsOff: aOff, AllocsOn: aOn, ExtraAllocs: aOn - aOff,
	}
	if res.NsOff > 0 {
		res.Ratio = res.NsOn / res.NsOff
	}
	return res
}

func measureObsServe(seed uint64) (obsServeResult, error) {
	rng := rand.New(rand.NewPCG(seed+4, seed+5))
	inst := gen.RandomDense(8, 10, 3, rng)
	set, err := psdp.NewDenseSet(inst.A)
	if err != nil {
		return obsServeResult{}, err
	}
	doc := instio.FromDenseSet(set)
	body, err := json.Marshal(map[string]any{"instance": doc, "eps": 0.25, "seed": 1})
	if err != nil {
		return obsServeResult{}, err
	}

	mk := func(disable bool) (*serve.Server, func(), error) {
		s := serve.New(serve.Config{Workers: 2, DisableMetrics: disable})
		op := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/decision", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("serve bench: status %d: %s", rec.Code, rec.Body.String()))
			}
		}
		op() // cold solve; every timed request below is the cache-hit hot path
		return s, op, nil
	}
	sOn, opOn, err := mk(false)
	if err != nil {
		return obsServeResult{}, err
	}
	defer sOn.Close()
	sOff, opOff, err := mk(true)
	if err != nil {
		return obsServeResult{}, err
	}
	defer sOff.Close()

	ts := timeOps([]timedOp{{op: opOff}, {op: opOn}})
	res := obsServeResult{NsOff: ts[0], NsOn: ts[1]}
	if res.NsOff > 0 {
		res.RpsOff = 1e9 / res.NsOff
		res.Ratio = res.NsOn / res.NsOff
	}
	if res.NsOn > 0 {
		res.RpsOn = 1e9 / res.NsOn
	}
	return res, nil
}
