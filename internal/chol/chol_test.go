package chol

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func randPSD(n, r int, rng *rand.Rand) *matrix.Dense {
	g := matrix.New(n, r)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return matrix.MulABT(g, g, nil)
}

func TestPivotedCholeskyFullRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randPSD(8, 8, rng)
	matrix.AddScaledIdentity(a, 0.1)
	q, rank, err := PivotedCholeskyWS(nil, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 8 {
		t.Fatalf("rank = %d want 8", rank)
	}
	qqt := matrix.MulABT(q, q, nil)
	if !matrix.ApproxEqual(qqt, a, 1e-8) {
		t.Fatal("QQᵀ != A")
	}
}

func TestPivotedCholeskyLowRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, r := range []int{1, 2, 4} {
		a := randPSD(10, r, rng)
		q, rank, err := PivotedCholeskyWS(nil, a, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if rank != r {
			t.Fatalf("rank = %d want %d", rank, r)
		}
		qqt := matrix.MulABT(q, q, nil)
		if !matrix.ApproxEqual(qqt, a, 1e-7) {
			t.Fatalf("rank %d: QQᵀ != A (err %g)", r, maxDiff(qqt, a))
		}
	}
}

func TestPivotedCholeskyZeroMatrix(t *testing.T) {
	q, rank, err := PivotedCholeskyWS(nil, matrix.New(5, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 0 || q.FrobNorm() != 0 {
		t.Fatalf("zero matrix: rank=%d |Q|=%v", rank, q.FrobNorm())
	}
}

func TestPivotedCholeskyRejectsIndefinite(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, _, err := PivotedCholeskyWS(nil, a, 0); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestInvSqrtPSDFullRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	a := randPSD(6, 6, rng)
	matrix.AddScaledIdentity(a, 0.2)
	inv, rank, err := InvSqrtPSD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 6 {
		t.Fatalf("rank = %d want 6", rank)
	}
	// A^{-1/2} A A^{-1/2} = I.
	m := matrix.MulAB(matrix.MulAB(inv, a, nil), inv, nil)
	if !matrix.ApproxEqual(m, matrix.Identity(6), 1e-8) {
		t.Fatal("A^{-1/2} A A^{-1/2} != I")
	}
}

func TestInvSqrtPSDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	a := randPSD(8, 3, rng)
	inv, rank, err := InvSqrtPSD(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 3 {
		t.Fatalf("rank = %d want 3", rank)
	}
	// On the support: A^{-1/2} A A^{-1/2} is the orthogonal projector
	// onto range(A); it must be idempotent with trace = rank.
	p := matrix.MulAB(matrix.MulAB(inv, a, nil), inv, nil)
	p2 := matrix.MulAB(p, p, nil)
	if !matrix.ApproxEqual(p2, p, 1e-8) {
		t.Fatal("projector not idempotent")
	}
	if math.Abs(p.Trace()-3) > 1e-8 {
		t.Fatalf("projector trace = %v want 3", p.Trace())
	}
}

func TestInvSqrtRejectsIndefinite(t *testing.T) {
	a := matrix.Diag([]float64{1, -2})
	if _, _, err := InvSqrtPSD(a, 0); err == nil {
		t.Fatal("indefinite accepted by InvSqrtPSD")
	}
}

func TestQuickPivotedCholeskyAlwaysReconstructs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		n := 1 + int(seed%8)
		r := 1 + int((seed/8)%uint64(n))
		a := randPSD(n, r, rng)
		q, _, err := PivotedCholeskyWS(nil, a, 0)
		if err != nil {
			return false
		}
		return matrix.ApproxEqual(matrix.MulABT(q, q, nil), a, 1e-7*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func maxDiff(a, b *matrix.Dense) float64 {
	d := matrix.New(a.R, a.C)
	matrix.Sub(d, a, b)
	return d.MaxAbs()
}
