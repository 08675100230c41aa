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

// Engine head-to-head mode (-section engines): run the MMW (Algorithm
// 3.1) and ALO (arXiv:1507.02259) engines on the same instances across
// an ε sweep and write the iteration counts and wall times under the
// "engines" key of BENCH_psdp.json. The mode GATES the committed
// crossover claim: at the tight-ε point ALO must use strictly fewer
// iterations than MMW on every case and both engines must reach the
// same decision — a regression in either fails the run (exit 1), so
// the baseline in the repo is always one a fresh run can reproduce.

// engineRunResult is one (case, eps, engine) measurement.
type engineRunResult struct {
	Engine     string  `json:"engine"`
	Outcome    string  `json:"outcome"`
	Iterations int     `json:"iterations"`
	NsPerCall  float64 `json:"ns_per_call"`
	Lower      float64 `json:"lower"`
	Upper      float64 `json:"upper"`
}

// enginePointResult is one head-to-head point: both engines on one
// instance at one ε.
type enginePointResult struct {
	Case           string          `json:"case"`
	Representation string          `json:"representation"`
	N              int             `json:"n"`
	M              int             `json:"m"`
	Eps            float64         `json:"eps"`
	MMW            engineRunResult `json:"mmw"`
	ALO            engineRunResult `json:"alo"`
	// IterRatio = alo/mmw iterations: < 1 means ALO won the point.
	IterRatio float64 `json:"iter_ratio"`
}

// enginesReport is the "engines" section of BENCH_psdp.json.
type enginesReport struct {
	// TightEps is the ε at which the crossover gate is enforced.
	TightEps float64             `json:"tight_eps"`
	Points   []enginePointResult `json:"points"`
}

// engineBenchCase is one benchmark instance; opts carries everything
// but the engine.
type engineBenchCase struct {
	name string
	rep  string
	set  psdp.ConstraintSet
	opts psdp.Options
}

// engineBenchCases builds the head-to-head instances: a dense accept
// (dual-exit) family, a dense reject (primal-exit) family with known
// OPT, and a sparse exact-oracle accept — every representation and both
// exit sides, so neither engine can win by specializing to one regime.
func engineBenchCases(seed uint64) ([]engineBenchCase, error) {
	var cases []engineBenchCase
	{
		rng := rand.New(rand.NewPCG(seed, 0))
		inst, err := gen.OrthogonalRankOne(16, 24, rng)
		if err != nil {
			return nil, err
		}
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			return nil, err
		}
		cases = append(cases, engineBenchCase{
			name: "dense-orth-accept", rep: "dense",
			set: set.WithScale(0.5), opts: psdp.Options{Seed: seed},
		})
	}
	{
		inst, err := gen.WidthFamilyExact(8, 10, 4)
		if err != nil {
			return nil, err
		}
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			return nil, err
		}
		// Scale the exactly-known optimum to 0.7: firmly on the reject
		// side at every ε in the sweep.
		cases = append(cases, engineBenchCase{
			name: "dense-width-reject", rep: "dense",
			set: set.WithScale(inst.OPT / 0.7), opts: psdp.Options{Seed: seed},
		})
	}
	{
		rng := rand.New(rand.NewPCG(seed, 1))
		g := graph.ErdosRenyi(14, 0.35, rng)
		inst, err := gen.SparseEdgePacking(g)
		if err != nil {
			return nil, err
		}
		set, err := psdp.NewSparseSet(inst.A)
		if err != nil {
			return nil, err
		}
		cases = append(cases, engineBenchCase{
			name: "sparse-er-exact", rep: "sparse",
			set: set.WithScale(0.2), opts: psdp.Options{Seed: seed, Oracle: psdp.OracleFactoredExact},
		})
	}
	return cases, nil
}

// runEngineOnce times one decision call under one engine.
func runEngineOnce(c engineBenchCase, eps float64, engine psdp.EngineKind) (engineRunResult, error) {
	opts := c.opts
	opts.Engine = engine
	start := time.Now()
	dr, err := psdp.Decision(c.set, eps, opts)
	if err != nil {
		return engineRunResult{}, fmt.Errorf("%s eps=%g engine=%v: %w", c.name, eps, engine, err)
	}
	return engineRunResult{
		Engine:     engine.String(),
		Outcome:    dr.Outcome.String(),
		Iterations: dr.Iterations,
		NsPerCall:  float64(time.Since(start).Nanoseconds()),
		Lower:      dr.Lower,
		Upper:      dr.Upper,
	}, nil
}

// runEngineBench measures the sweep, enforces the tight-ε crossover
// gate, and merges the report under the "engines" key of path,
// preserving every other section.
func runEngineBench(path string, quick bool, seed uint64) error {
	epsSweep := []float64{0.25, 0.1, 0.05}
	if quick {
		epsSweep = []float64{0.25, 0.1}
	}
	tight := epsSweep[len(epsSweep)-1]

	cases, err := engineBenchCases(seed)
	if err != nil {
		return err
	}
	rep := enginesReport{TightEps: tight}
	var gateErrs []string
	for _, c := range cases {
		for _, eps := range epsSweep {
			mmw, err := runEngineOnce(c, eps, psdp.EngineMMW)
			if err != nil {
				return err
			}
			alo, err := runEngineOnce(c, eps, psdp.EngineALO)
			if err != nil {
				return err
			}
			pt := enginePointResult{
				Case: c.name, Representation: c.rep,
				N: c.set.N(), M: c.set.Dim(), Eps: eps,
				MMW: mmw, ALO: alo,
			}
			if mmw.Iterations > 0 {
				pt.IterRatio = float64(alo.Iterations) / float64(mmw.Iterations)
			}
			rep.Points = append(rep.Points, pt)
			fmt.Printf("%-20s eps=%.2f  mmw %6d iters (%8.1fms, %s)  alo %6d iters (%8.1fms, %s)  ratio %.3f\n",
				c.name, eps, mmw.Iterations, mmw.NsPerCall/1e6, mmw.Outcome,
				alo.Iterations, alo.NsPerCall/1e6, alo.Outcome, pt.IterRatio)
			if mmw.Outcome != alo.Outcome {
				gateErrs = append(gateErrs, fmt.Sprintf(
					"%s eps=%g: engines disagree (mmw=%s, alo=%s)", c.name, eps, mmw.Outcome, alo.Outcome))
			}
			if eps == tight && alo.Iterations >= mmw.Iterations {
				gateErrs = append(gateErrs, fmt.Sprintf(
					"%s eps=%g: alo used %d iterations, mmw %d — crossover claim violated",
					c.name, eps, alo.Iterations, mmw.Iterations))
			}
		}
	}
	if err := benchfile.Merge(path, map[string]any{"engines": &rep}); err != nil {
		return err
	}
	fmt.Printf("wrote %s (engines section, tight eps %.2f)\n", path, tight)
	for _, msg := range gateErrs {
		fmt.Fprintf(os.Stderr, "psdpbench: GATE: %s\n", msg)
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("%d engine-crossover gate violations", len(gateErrs))
	}
	return nil
}
