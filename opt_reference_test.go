// Ground-truth check for Maximize: on families whose packing optimum is
// known exactly, every certified bracket [Lower, Upper] must contain
// OPT, be at most ε wide, and carry a witness that passes the
// independent VerifyDual check. The solver certifies its own bounds;
// this suite checks them against a value it did not compute.
package psdp_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	psdp "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/poslp"
)

// optCase is one Maximize instance with its exact packing optimum.
// mmwOnly marks the cycle cases ALO skips to keep the suite short (see
// exactOPTCases).
type optCase struct {
	name    string
	set     psdp.ConstraintSet
	opt     float64
	eps     float64
	opts    psdp.Options
	mmwOnly bool
}

// cycleEdgePackingOPT is the edge-packing optimum of the n-cycle:
// by rotation symmetry the optimum is uniform, x_e = 1/λ_max(L(Cₙ)),
// so OPT = n/λ_max with λ_max = 2 − 2cos(2π⌊n/2⌋/n).
func cycleEdgePackingOPT(n int) float64 {
	lam := 2 - 2*math.Cos(2*math.Pi*float64(n/2)/float64(n))
	return float64(n) / lam
}

func exactOPTCases(t *testing.T) []optCase {
	t.Helper()
	var cases []optCase
	for _, w := range []float64{1, 4, 32} {
		inst, err := gen.WidthFamilyExact(6, 8, w)
		if err != nil {
			t.Fatal(err)
		}
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, optCase{name: fmt.Sprintf("width-%g", w), set: set, opt: inst.OPT,
			eps: 0.15, opts: psdp.Options{Seed: 3}})
	}
	// Under the race detector, where these single-goroutine runs cost
	// about ten times as much and find no race, the cycles stop at C₈.
	maxCycle := 16
	if raceEnabled() {
		maxCycle = 8
	}
	for n := 5; n <= maxCycle; n++ {
		g := graph.Cycle(n)
		fi, err := gen.GraphEdgePacking(g)
		if err != nil {
			t.Fatal(err)
		}
		fset, err := psdp.NewFactoredSet(fi.Q)
		if err != nil {
			t.Fatal(err)
		}
		si, err := gen.SparseEdgePacking(g)
		if err != nil {
			t.Fatal(err)
		}
		sset, err := psdp.NewSparseSet(si.A)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.15, 0.25} {
			opts := psdp.Options{Seed: uint64(100 + n), SketchEps: 0.4, Oracle: psdp.OracleFactoredJL}
			// ALO runs each call at ε/4 on the JL oracle, about 1 s per
			// cycle above C12 or at ε = 0.15; those runs (all within ε
			// and containing OPT) stay out of Tier-1.
			mmwOnly := eps < 0.25 || n > 12
			cases = append(cases,
				optCase{name: fmt.Sprintf("factored-C%d-eps%g", n, eps), set: fset, opt: cycleEdgePackingOPT(n), eps: eps, opts: opts, mmwOnly: mmwOnly},
				optCase{name: fmt.Sprintf("sparse-C%d-eps%g", n, eps), set: sset, opt: cycleEdgePackingOPT(n), eps: eps, opts: opts, mmwOnly: mmwOnly})
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 97))
		inst, p := gen.DiagonalLP(10, 6, 0.5, rng)
		pk, err := poslp.NewPacking(p)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := poslp.ExactPackingOPT(pk)
		if err != nil {
			t.Fatal(err)
		}
		set, err := psdp.NewDenseSet(inst.A)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, optCase{name: fmt.Sprintf("diag-lp-%d", seed), set: set, opt: opt,
			eps: 0.2, opts: psdp.Options{Seed: seed}})
	}
	return cases
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestMaximizeBracketsContainExactOPT(t *testing.T) {
	// Lower and OPT can both sit on the same optimal face; allow the
	// rounding of OPT's own closed form, nothing more.
	const slack = 1e-12
	for _, c := range exactOPTCases(t) {
		for _, eng := range []psdp.EngineKind{psdp.EngineMMW, psdp.EngineALO} {
			if eng == psdp.EngineALO && c.mmwOnly {
				continue
			}
			t.Run(c.name+"/"+eng.String(), func(t *testing.T) {
				opts := c.opts
				opts.Engine = eng
				sol, err := psdp.Maximize(c.set, c.eps, opts)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Lower > c.opt*(1+slack) || sol.Upper < c.opt*(1-slack) {
					t.Errorf("bracket [%.9g, %.9g] misses OPT %.9g", sol.Lower, sol.Upper, c.opt)
				}
				if g := sol.Gap(); g > c.eps {
					t.Errorf("gap %.4f > ε = %g (bracket [%.9g, %.9g], %d calls)", g, c.eps, sol.Lower, sol.Upper, sol.DecisionCalls)
				}
				cert, err := psdp.VerifyDual(c.set, sol.X, 1e-6)
				if err != nil {
					t.Fatal(err)
				}
				if !cert.Feasible {
					t.Errorf("witness infeasible: λ_max = %.12g", cert.LambdaMax)
				}
				if math.Abs(cert.Value-sol.Value) > 1e-9*sol.Value {
					t.Errorf("witness value %.12g, reported %.12g", cert.Value, sol.Value)
				}
			})
		}
	}
}
