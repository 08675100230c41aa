// Golden-corpus regression harness: a fixed set of small seeded
// instances (dense, factored, mixed) whose certified bounds and
// outcomes are committed under testdata/golden as exact float64 bit
// patterns. Any change to the solver that perturbs a single bit of any
// certified quantity — an accidental reordering of a reduction, a
// kernel rewrite that changes accumulation order, a seed-derivation
// slip — fails these tests immediately. Combined with the
// cross-GOMAXPROCS determinism harness this pins the solver's output
// across both axes: parallelism and history.
//
// To refresh after an INTENTIONAL numerical change:
//
//	go test -run TestGoldenCorpus -update-golden
//
// and commit the regenerated files with an explanation of why the
// numbers moved.
package psdp_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	psdp "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files from current outputs")

// goldenRecord is one committed result. Float64s are stored as exact
// bit patterns (uint64) next to a human-readable rendering; only the
// bits are compared.
type goldenRecord struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"` // decision | maximize | mixed
	Outcome    string   `json:"outcome"`
	Iterations int      `json:"iterations"`
	LowerBits  uint64   `json:"lower_bits"`
	UpperBits  uint64   `json:"upper_bits"`
	Lower      string   `json:"lower"`
	Upper      string   `json:"upper"`
	XBits      []uint64 `json:"x_bits,omitempty"`
	// Extra holds kind-specific scalars (λ_max, coverage, call counts),
	// keyed by name, as bit patterns.
	Extra map[string]uint64 `json:"extra,omitempty"`
}

type goldenCase struct {
	name string
	run  func(t *testing.T) goldenRecord
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }

func vecBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = bitsOf(x)
	}
	return out
}

func decisionRecord(name string, dr *psdp.DecisionResult) goldenRecord {
	return goldenRecord{
		Name:       name,
		Kind:       "decision",
		Outcome:    dr.Outcome.String(),
		Iterations: dr.Iterations,
		LowerBits:  bitsOf(dr.Lower),
		UpperBits:  bitsOf(dr.Upper),
		Lower:      fmt.Sprintf("%g", dr.Lower),
		Upper:      fmt.Sprintf("%g", dr.Upper),
		XBits:      vecBits(dr.X),
		Extra: map[string]uint64{
			"lambda_max_psi": bitsOf(dr.LambdaMaxPsi),
			"max_psi_norm":   bitsOf(dr.MaxPsiNorm),
		},
	}
}

func maximizeRecord(name string, sol *psdp.Solution) goldenRecord {
	return goldenRecord{
		Name:       name,
		Kind:       "maximize",
		Outcome:    "bracket",
		Iterations: sol.TotalIterations,
		LowerBits:  bitsOf(sol.Lower),
		UpperBits:  bitsOf(sol.Upper),
		Lower:      fmt.Sprintf("%g", sol.Lower),
		Upper:      fmt.Sprintf("%g", sol.Upper),
		XBits:      vecBits(sol.X),
		Extra: map[string]uint64{
			"decision_calls": uint64(sol.DecisionCalls),
			"value":          bitsOf(sol.Value),
		},
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "dense-orth-rank1-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(11, 12))
			inst, err := gen.OrthogonalRankOne(10, 12, rng)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(inst.OPT), 0.2, psdp.Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("dense-orth-rank1-decision", dr)
		}},
		{name: "dense-random-bucketed-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(31, 32))
			inst := gen.RandomDense(8, 10, 4, rng)
			set, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.3), 0.25, psdp.Options{Seed: 9, Bucketed: true})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("dense-random-bucketed-decision", dr)
		}},
		{name: "dense-diag-lp-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(41, 42))
			inst, _ := gen.DiagonalLP(12, 6, 0.4, rng)
			set, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.5), 0.2, psdp.Options{Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("dense-diag-lp-decision", dr)
		}},
		{name: "dense-identical-theory-exact", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(51, 52))
			a := gen.RandomPSD(8, 3, rng)
			set, err := psdp.NewDenseSet([]*psdp.Dense{a, a, a, a})
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.25), 0.3, psdp.Options{Seed: 17, TheoryExact: true, MaxIter: 200})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("dense-identical-theory-exact", dr)
		}},
		{name: "dense-width-maximize", run: func(t *testing.T) goldenRecord {
			inst, err := gen.WidthFamilyExact(6, 8, 32)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := psdp.Maximize(set, 0.15, psdp.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return maximizeRecord("dense-width-maximize", sol)
		}},
		{name: "factored-random-jl-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(21, 22))
			inst, err := gen.RandomFactored(12, 24, 2, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewFactoredSet(inst.Q)
			if err != nil {
				t.Fatal(err)
			}
			minTr := math.Inf(1)
			for i := 0; i < set.N(); i++ {
				if tr := set.Trace(i); tr < minTr {
					minTr = tr
				}
			}
			dr, err := psdp.Decision(set.WithScale(2/minTr), 0.25, psdp.Options{Seed: 7, SketchEps: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("factored-random-jl-decision", dr)
		}},
		{name: "factored-beamforming-exact-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(61, 62))
			inst, err := gen.Beamforming(10, 6, rng)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewFactoredSet(inst.Q)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.1), 0.25, psdp.Options{Seed: 19, Oracle: psdp.OracleFactoredExact, MaxIter: 120})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("factored-beamforming-exact-decision", dr)
		}},
		{name: "factored-cycle-maximize", run: func(t *testing.T) goldenRecord {
			inst, err := gen.GraphEdgePacking(graph.Cycle(8))
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewFactoredSet(inst.Q)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := psdp.Maximize(set, 0.25, psdp.Options{Seed: 23, SketchEps: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			return maximizeRecord("factored-cycle-maximize", sol)
		}},
		{name: "sparse-grid-jl-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(71, 72))
			inst, err := gen.SparseGroupedLaplacians(graph.Grid(4, 4), 6, rng)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewSparseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.15), 0.25, psdp.Options{Seed: 27, SketchEps: 0.4, MaxIter: 80})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("sparse-grid-jl-decision", dr)
		}},
		{name: "sparse-er-exact-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(81, 82))
			g := graph.ErdosRenyi(14, 0.35, rng)
			inst, err := gen.SparseEdgePacking(g)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewSparseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.2), 0.25, psdp.Options{Seed: 31, Oracle: psdp.OracleFactoredExact, MaxIter: 100})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("sparse-er-exact-decision", dr)
		}},
		{name: "sparse-cycle-maximize", run: func(t *testing.T) goldenRecord {
			inst, err := gen.SparseEdgePacking(graph.Cycle(9))
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewSparseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := psdp.Maximize(set, 0.25, psdp.Options{Seed: 37, SketchEps: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			return maximizeRecord("sparse-cycle-maximize", sol)
		}},
		{name: "dense-random-alo-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(101, 102))
			inst := gen.RandomDense(10, 8, 3, rng)
			set, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(0.15), 0.2, psdp.Options{Seed: 47, Engine: psdp.EngineALO})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("dense-random-alo-decision", dr)
		}},
		{name: "sparse-grid-jl-alo-decision", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(103, 104))
			inst, err := gen.SparseGroupedLaplacians(graph.Grid(4, 4), 6, rng)
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewSparseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := psdp.Decision(set.WithScale(1.2), 0.25, psdp.Options{Seed: 53, SketchEps: 0.4, MaxIter: 600, Engine: psdp.EngineALO})
			if err != nil {
				t.Fatal(err)
			}
			return decisionRecord("sparse-grid-jl-alo-decision", dr)
		}},
		{name: "factored-cycle-alo-maximize", run: func(t *testing.T) goldenRecord {
			inst, err := gen.GraphEdgePacking(graph.Cycle(8))
			if err != nil {
				t.Fatal(err)
			}
			set, err := psdp.NewFactoredSet(inst.Q)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := psdp.Maximize(set, 0.25, psdp.Options{Seed: 59, SketchEps: 0.4, Engine: psdp.EngineALO})
			if err != nil {
				t.Fatal(err)
			}
			return maximizeRecord("factored-cycle-alo-maximize", sol)
		}},
		{name: "mixed-diag-solve", run: func(t *testing.T) goldenRecord {
			pack, err := psdp.NewDenseSet([]*psdp.Dense{
				psdp.Diag([]float64{0.5, 0.2, 0.1}),
				psdp.Diag([]float64{0.1, 0.4, 0.2}),
				psdp.Diag([]float64{0.3, 0.1, 0.5}),
			})
			if err != nil {
				t.Fatal(err)
			}
			cover := psdp.MatrixFromRows([][]float64{{1, 0.5, 0}, {0, 1, 1}})
			mp, err := psdp.NewMixedProblem(pack, cover)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := psdp.SolveMixed(mp, 0.2, psdp.MixedOptions{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			return mixedRecord("mixed-diag-solve", mr)
		}},
		{name: "mixed-lp-gen-solve", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(91, 92))
			inst, err := gen.MixedCoveringLP(8, 10, 4, 0.5, rng)
			if err != nil {
				t.Fatal(err)
			}
			pack, err := psdp.NewDenseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := psdp.NewMixedProblem(pack, inst.C)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := psdp.SolveMixed(mp, 0.15, psdp.MixedOptions{Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			return mixedRecord("mixed-lp-gen-solve", mr)
		}},
		{name: "mixed-graph-alo-solve", run: func(t *testing.T) goldenRecord {
			rng := rand.New(rand.NewPCG(95, 96))
			g := graph.ErdosRenyi(16, 6.0/16, rng)
			inst, err := gen.MixedGraphCovering(g, 6, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			pack, err := psdp.NewSparseSet(inst.A)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := psdp.NewMixedProblem(pack, inst.C)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := psdp.SolveMixed(mp, 0.2, psdp.MixedOptions{Seed: 43, Engine: psdp.EngineALO})
			if err != nil {
				t.Fatal(err)
			}
			return mixedRecord("mixed-graph-alo-solve", mr)
		}},
	}
}

func mixedRecord(name string, mr *psdp.MixedResult) goldenRecord {
	return goldenRecord{
		Name:       name,
		Kind:       "mixed",
		Outcome:    mr.Status.String(),
		Iterations: mr.Iterations,
		LowerBits:  bitsOf(mr.MinCoverage),
		UpperBits:  bitsOf(mr.LambdaMax),
		Lower:      fmt.Sprintf("%g", mr.MinCoverage),
		Upper:      fmt.Sprintf("%g", mr.LambdaMax),
		XBits:      vecBits(mr.X),
		Extra: map[string]uint64{
			"capped": uint64(mr.Capped),
		},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenCorpusGuard is the explicit byte-for-byte corpus gate (its
// own CI step, separate from the tier-1 sweep). It fails if the
// committed file set and the case list drift apart — a case silently
// dropped from goldenCases would otherwise make TestGoldenCorpus pass
// vacuously — and then re-runs every case at GOMAXPROCS=8 against the
// committed bit patterns, pinning the parallel axis at whole-solver
// level rather than only in the kernel unit tests.
func TestGoldenCorpusGuard(t *testing.T) {
	if *updateGolden {
		t.Skip("corpus is being rewritten")
	}
	cases := goldenCases()
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]bool, len(entries))
	for _, e := range entries {
		committed[e.Name()] = true
	}
	if len(entries) != len(cases) {
		t.Errorf("corpus drift: %d committed golden files, %d cases", len(entries), len(cases))
	}
	for _, gc := range cases {
		if !committed[gc.name+".json"] {
			t.Errorf("case %q has no committed golden file", gc.name)
		}
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	runtime.GOMAXPROCS(8)
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got := gc.run(t)
			data, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("parsing %s: %v", goldenPath(gc.name), err)
			}
			compareGolden(t, &want, &got)
		})
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got := gc.run(t)
			path := goldenPath(gc.name)
			if *updateGolden {
				data, err := json.MarshalIndent(&got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			compareGolden(t, &want, &got)
		})
	}
}

func compareGolden(t *testing.T, want, got *goldenRecord) {
	t.Helper()
	if got.Kind != want.Kind || got.Outcome != want.Outcome || got.Iterations != want.Iterations {
		t.Fatalf("outcome drift: got %s/%s/%d iterations, want %s/%s/%d",
			got.Kind, got.Outcome, got.Iterations, want.Kind, want.Outcome, want.Iterations)
	}
	if got.LowerBits != want.LowerBits || got.UpperBits != want.UpperBits {
		t.Fatalf("certified bounds drift: got [%s, %s] (%016x, %016x), want [%s, %s] (%016x, %016x)",
			got.Lower, got.Upper, got.LowerBits, got.UpperBits,
			want.Lower, want.Upper, want.LowerBits, want.UpperBits)
	}
	if len(got.XBits) != len(want.XBits) {
		t.Fatalf("witness length drift: %d vs %d", len(got.XBits), len(want.XBits))
	}
	for i := range got.XBits {
		if got.XBits[i] != want.XBits[i] {
			t.Fatalf("witness X[%d] drift: %016x vs %016x", i, got.XBits[i], want.XBits[i])
		}
	}
	for k, wv := range want.Extra {
		if gv, ok := got.Extra[k]; !ok || gv != wv {
			t.Fatalf("extra %q drift: %016x vs %016x", k, got.Extra[k], wv)
		}
	}
}
