// End-to-end acceptance harness for the general-sparse representation:
// an Erdős–Rényi edge-Laplacian packing instance at production-shaped
// size (m ≥ 512 vertices, nnz ≪ m²) must solve through Decision,
// Maximize, and the psdpd HTTP service with results bitwise identical
// at GOMAXPROCS 1 and 8. The CLI path (psdpgen -family sparse |
// psdpsolve) is exercised by scripts/serve_smoke.sh on the same wire
// format.
package psdp_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	psdp "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/serve"
)

// sparseERSet builds the m≥512 Erdős–Rényi edge-Laplacian instance
// shared by the e2e tests: ~2.5 expected edges per vertex keeps
// nnz = 4·|E| ≈ 5·m, vanishing next to the m² a densified constraint
// would cost.
func sparseERSet(t *testing.T) (*psdp.SparseSet, *instio.Instance) {
	t.Helper()
	const m = 512
	rng := rand.New(rand.NewPCG(2012, 1201))
	g := graph.ErdosRenyi(m, 2.5/float64(m), rng)
	inst, err := gen.SparseEdgePacking(g)
	if err != nil {
		t.Fatal(err)
	}
	set, err := psdp.NewSparseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	if set.Dim() < 512 {
		t.Fatalf("dimension %d < 512", set.Dim())
	}
	if set.NNZ()*64 > set.Dim()*set.Dim() {
		t.Fatalf("instance not sparse enough: nnz=%d vs m²=%d", set.NNZ(), set.Dim()*set.Dim())
	}
	return set, instio.FromSparseSet(set)
}

func sparseE2EOpts() psdp.Options {
	return psdp.Options{Seed: 42, SketchEps: 0.5, MaxIter: 8}
}

func TestSparseLargeDecisionBitwiseAcrossGOMAXPROCS(t *testing.T) {
	set, _ := sparseERSet(t)
	scaled := set.WithScale(0.05)
	run := func() *psdp.DecisionResult {
		dr, err := psdp.Decision(scaled, 0.3, sparseE2EOpts())
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}
	var dr1, dr8 *psdp.DecisionResult
	atGOMAXPROCS(1, func() { dr1 = run() })
	atGOMAXPROCS(8, func() { dr8 = run() })
	sameDecision(t, "sparse-er-512 decision", dr1, dr8)
	if !(dr1.Lower > 0) || dr1.Upper < dr1.Lower {
		t.Fatalf("invalid certified bracket [%v, %v]", dr1.Lower, dr1.Upper)
	}
	// The witness must verify independently against the sparse operator.
	cert, err := psdp.VerifyDual(scaled, dr1.DualX, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible {
		t.Fatalf("witness infeasible: λ_max = %v", cert.LambdaMax)
	}
}

func TestSparseLargeMaximizeBitwiseAcrossGOMAXPROCS(t *testing.T) {
	set, _ := sparseERSet(t)
	run := func() *psdp.Solution {
		sol, err := psdp.Maximize(set, 0.3, sparseE2EOpts())
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	var s1, s8 *psdp.Solution
	atGOMAXPROCS(1, func() { s1 = run() })
	atGOMAXPROCS(8, func() { s8 = run() })
	if !sameBits(s1.Lower, s8.Lower) || !sameBits(s1.Upper, s8.Upper) || !sameBits(s1.Value, s8.Value) {
		t.Fatalf("Maximize differs across GOMAXPROCS: [%v, %v] vs [%v, %v]",
			s1.Lower, s1.Upper, s8.Lower, s8.Upper)
	}
	sameVec(t, "sparse-er-512 Maximize.X", s1.X, s8.X)
	cert, err := psdp.VerifyDual(set, s1.X, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible {
		t.Fatalf("Maximize witness infeasible: λ_max = %v", cert.LambdaMax)
	}
}

func TestSparseLargeDecisionThroughServer(t *testing.T) {
	set, doc := sparseERSet(t)
	want, err := psdp.Decision(set.WithScale(0.05), 0.3, sparseE2EOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Under -race this one server solve takes about 15 s alone on a
	// 2-CPU box (31 s for the whole test) and about 25 s beside the other
	// race-instrumented packages of `go test -race ./...`, close to
	// serve's 30 s default deadline, so the test names its own.
	s := serve.New(serve.Config{Workers: 2, DefaultTimeout: 5 * time.Minute})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := map[string]any{
		"instance": doc, "eps": 0.3, "seed": 42,
		"scale": 0.05, "sketchEps": 0.5, "maxIter": 8,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/decision", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got serve.DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Outcome != want.Outcome.String() || got.Iterations != want.Iterations {
		t.Fatalf("outcome drift: %s/%d vs %v/%d", got.Outcome, got.Iterations, want.Outcome, want.Iterations)
	}
	if !sameBits(float64(got.Lower), want.Lower) || !sameBits(float64(got.Upper), want.Upper) {
		t.Fatalf("bounds drift: [%v, %v] vs [%v, %v]", got.Lower, got.Upper, want.Lower, want.Upper)
	}
	sameVec(t, "server x", got.X, want.DualX)
}
