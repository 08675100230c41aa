package graph

import (
	"math/rand/v2"
	"testing"

	"repro/internal/matrix"
)

func TestCyclePathCompleteGrid(t *testing.T) {
	if got := Cycle(5).M(); got != 5 {
		t.Fatalf("C5 edges = %d", got)
	}
	if got := Path(5).M(); got != 4 {
		t.Fatalf("P5 edges = %d", got)
	}
	if got := Grid(2, 3).M(); got != 7 {
		t.Fatalf("2x3 grid edges = %d", got)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if ErdosRenyi(6, 0, rng).M() != 0 {
		t.Fatal("G(n,0) must have no edges")
	}
	if ErdosRenyi(6, 1, rng).M() != 15 {
		t.Fatal("G(n,1) must be complete")
	}
}

func TestDegreesSumTwiceEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := ErdosRenyi(12, 0.4, rng)
	sum := 0
	for _, d := range g.Degrees() {
		sum += d
	}
	if sum != 2*g.M() {
		t.Fatalf("Σdeg = %d want %d", sum, 2*g.M())
	}
}

func TestLaplacianProperties(t *testing.T) {
	g := Cycle(6)
	l := g.Laplacian()
	// Row sums zero, diagonal = degree 2.
	for i := 0; i < 6; i++ {
		if l.At(i, i) != 2 {
			t.Fatalf("diag %d = %v", i, l.At(i, i))
		}
		s := 0.0
		for j := 0; j < 6; j++ {
			s += l.At(i, j)
		}
		if s != 0 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	if !l.IsSymmetric(0) {
		t.Fatal("Laplacian not symmetric")
	}
}

func TestEdgeFactorsSumToLaplacian(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := ErdosRenyi(8, 0.5, rng)
	qs, err := g.EdgeFactors()
	if err != nil {
		t.Fatal(err)
	}
	sum := matrix.New(g.N, g.N)
	for _, q := range qs {
		matrix.AXPY(sum, 1, q.GramDense())
	}
	if !matrix.ApproxEqual(sum, g.Laplacian(), 1e-12) {
		t.Fatal("Σ bₑbₑᵀ != L")
	}
}

func TestEdgeFactorWeighted(t *testing.T) {
	g := Path(2)
	q, err := g.EdgeFactor(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := q.GramDense()
	if l.At(0, 0) != 4 || l.At(0, 1) != -4 {
		t.Fatalf("weighted edge Laplacian wrong: %v", l)
	}
}

func TestEdgeFactorValidation(t *testing.T) {
	g := Path(3)
	if _, err := g.EdgeFactor(5, 1); err == nil {
		t.Fatal("bad index accepted")
	}
	if _, err := g.EdgeFactor(0, -1); err == nil {
		t.Fatal("bad weight accepted")
	}
}
