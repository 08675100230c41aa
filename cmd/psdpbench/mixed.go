package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	psdp "repro"
	"repro/internal/benchfile"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Mixed packing/covering mode (-section mixed): solve witness-feasible
// mixed instances from both generator families under both engines and
// write the iteration counts and wall times under the "mixed" key of
// BENCH_psdp.json. The mode GATES solver health: every run must end
// verified feasible (the generators construct instances with a known
// interior witness, so an inconclusive run is a solver regression, not
// a hard instance) and the two engines must agree on the status.

// mixedRunResult is one (case, engine) measurement.
type mixedRunResult struct {
	Engine      string  `json:"engine"`
	Status      string  `json:"status"`
	Iterations  int     `json:"iterations"`
	Capped      int     `json:"capped"`
	NsPerCall   float64 `json:"ns_per_call"`
	MinCoverage float64 `json:"min_coverage"`
	LambdaMax   float64 `json:"lambda_max"`
}

// mixedPointResult is one head-to-head point: both engines on one
// generated mixed instance.
type mixedPointResult struct {
	Case           string         `json:"case"`
	Representation string         `json:"representation"`
	N              int            `json:"n"`
	M              int            `json:"m"`
	CoverRows      int            `json:"cover_rows"`
	Eps            float64        `json:"eps"`
	MMW            mixedRunResult `json:"mmw"`
	ALO            mixedRunResult `json:"alo"`
}

// mixedReport is the "mixed" section of BENCH_psdp.json.
type mixedReport struct {
	Eps    float64            `json:"eps"`
	Points []mixedPointResult `json:"points"`
}

// mixedBenchCase is one benchmark instance.
type mixedBenchCase struct {
	name string
	rep  string
	prob *psdp.MixedProblem
}

// mixedBenchCases builds one instance per generator family: the dense
// covering-LP construction and the sparse grouped-Laplacian graph
// construction — both representations of the packing side the serving
// layer distinguishes.
func mixedBenchCases(quick bool, seed uint64) ([]mixedBenchCase, error) {
	nLP, mLP, nG, mG := 24, 32, 16, 64
	if quick {
		nLP, mLP, nG, mG = 8, 10, 6, 20
	}
	var cases []mixedBenchCase
	{
		rng := rand.New(rand.NewPCG(seed, 10))
		inst, err := gen.MixedCoveringLP(nLP, mLP, max(2, nLP/2), 0.5, rng)
		if err != nil {
			return nil, err
		}
		pack, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			return nil, err
		}
		prob, err := psdp.NewMixedProblem(pack, inst.C)
		if err != nil {
			return nil, err
		}
		cases = append(cases, mixedBenchCase{name: "mixed-lp", rep: "dense", prob: prob})
	}
	{
		rng := rand.New(rand.NewPCG(seed, 11))
		g := graph.ErdosRenyi(mG, 6.0/float64(mG), rng)
		inst, err := gen.MixedGraphCovering(g, nG, max(2, nG/2), rng)
		if err != nil {
			return nil, err
		}
		pack, err := psdp.NewSparseSet(inst.A)
		if err != nil {
			return nil, err
		}
		prob, err := psdp.NewMixedProblem(pack, inst.C)
		if err != nil {
			return nil, err
		}
		cases = append(cases, mixedBenchCase{name: "mixed-graph", rep: "sparse", prob: prob})
	}
	return cases, nil
}

// runMixedOnce times one mixed solve under one engine.
func runMixedOnce(c mixedBenchCase, eps float64, seed uint64, engine psdp.EngineKind) (mixedRunResult, error) {
	start := time.Now()
	mr, err := psdp.SolveMixed(c.prob, eps, psdp.MixedOptions{Seed: seed, Engine: engine})
	if err != nil {
		return mixedRunResult{}, fmt.Errorf("%s engine=%v: %w", c.name, engine, err)
	}
	return mixedRunResult{
		Engine:      mr.Engine,
		Status:      mr.Status.String(),
		Iterations:  mr.Iterations,
		Capped:      mr.Capped,
		NsPerCall:   float64(time.Since(start).Nanoseconds()),
		MinCoverage: mr.MinCoverage,
		LambdaMax:   mr.LambdaMax,
	}, nil
}

// runMixedBench measures both cases, enforces the feasibility and
// engine-agreement gates, and merges the report under the "mixed" key
// of path, preserving every other section.
func runMixedBench(path string, quick bool, seed uint64) error {
	const eps = 0.1
	cases, err := mixedBenchCases(quick, seed)
	if err != nil {
		return err
	}
	rep := mixedReport{Eps: eps}
	var gateErrs []string
	for _, c := range cases {
		mmw, err := runMixedOnce(c, eps, seed, psdp.EngineMMW)
		if err != nil {
			return err
		}
		alo, err := runMixedOnce(c, eps, seed, psdp.EngineALO)
		if err != nil {
			return err
		}
		pt := mixedPointResult{
			Case: c.name, Representation: c.rep,
			N: c.prob.Pack.N(), M: c.prob.Pack.Dim(), CoverRows: c.prob.Cover.R,
			Eps: eps, MMW: mmw, ALO: alo,
		}
		rep.Points = append(rep.Points, pt)
		fmt.Printf("%-14s mmw %6d iters (%8.1fms, %s)  alo %6d iters (%8.1fms, %s)\n",
			c.name, mmw.Iterations, mmw.NsPerCall/1e6, mmw.Status,
			alo.Iterations, alo.NsPerCall/1e6, alo.Status)
		for _, r := range []mixedRunResult{mmw, alo} {
			if r.Status != psdp.MixedFeasible.String() {
				gateErrs = append(gateErrs, fmt.Sprintf(
					"%s engine=%s: %s on a witness-feasible instance (coverage %g, λ %g)",
					c.name, r.Engine, r.Status, r.MinCoverage, r.LambdaMax))
			}
		}
		if mmw.Status != alo.Status {
			gateErrs = append(gateErrs, fmt.Sprintf(
				"%s: engines disagree (mmw=%s, alo=%s)", c.name, mmw.Status, alo.Status))
		}
	}
	if err := benchfile.Merge(path, map[string]any{"mixed": &rep}); err != nil {
		return err
	}
	fmt.Printf("wrote %s (mixed section, eps %.2f)\n", path, eps)
	for _, msg := range gateErrs {
		fmt.Fprintf(os.Stderr, "psdpbench: GATE: %s\n", msg)
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("%d mixed-feasibility gate violations", len(gateErrs))
	}
	return nil
}
