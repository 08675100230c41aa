package sparse

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The block kernels hold k vectors interleaved (entry i of vector c at
// i·k+c). Each test runs a block form once and the vector form on
// every column alone, and requires bitwise-equal columns. The sizes
// put the block forms above their fork grain, so at GOMAXPROCS > 1 the
// parallel branch is the one checked.

func interleave(cols [][]float64) []float64 {
	k, n := len(cols), len(cols[0])
	b := make([]float64, n*k)
	for c, col := range cols {
		for i, x := range col {
			b[i*k+c] = x
		}
	}
	return b
}

func column(b []float64, k, c int) []float64 {
	col := make([]float64, len(b)/k)
	for i := range col {
		col[i] = b[i*k+c]
	}
	return col
}

func requireBits(t *testing.T, what string, c int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s column %d entry %d: block %v, vector %v", what, c, i, got[i], want[i])
		}
	}
}

// randRectCSC builds an r×c CSC with about perCol entries per column.
func randRectCSC(r, c, perCol int, rng *rand.Rand) *CSC {
	var trips []Triplet
	for j := 0; j < c; j++ {
		for e := 0; e < perCol; e++ {
			trips = append(trips, Triplet{Row: rng.IntN(r), Col: j, Val: rng.NormFloat64()})
		}
	}
	m, err := NewCSC(r, c, trips)
	if err != nil {
		panic(err)
	}
	return m
}

func TestTMulBlockMatchesTMulVec(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	q := randRectCSC(40, 700, 3, rng)
	const k = 4
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = randVecT(q.R, rng)
	}
	scale := randVecT(q.C, rng)
	out := make([]float64, q.C*k)
	q.TMulBlockInto(out, interleave(cols), scale, k)
	for c, v := range cols {
		want := make([]float64, q.C)
		q.TMulVecInto(want, v)
		for j := range want {
			want[j] *= scale[j]
		}
		requireBits(t, "TMulBlockInto", c, column(out, k, c), want)
	}
}

func TestMulBlockAddMatchesMulVecAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	// Column 0 alone touches row 0, so where a vector's coefficient for
	// column 0 is exactly zero its -0 start in row 0 survives only if the
	// block form skips that (column, vector) pair as the vector form does.
	trips := []Triplet{{Row: 0, Col: 0, Val: 1.5}}
	for j := 1; j < 300; j++ {
		for e := 0; e < 3; e++ {
			trips = append(trips, Triplet{Row: 1 + rng.IntN(49), Col: j, Val: rng.NormFloat64()})
		}
	}
	q, err := NewCSC(50, 300, trips)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	us := make([][]float64, k)
	dsts := make([][]float64, k)
	for c := range us {
		us[c] = randVecT(q.C, rng)
		dsts[c] = randVecT(q.R, rng)
		dsts[c][0] = math.Copysign(0, -1)
	}
	us[1][0] = 0 // the Qᵀv entry of vector 1 on column 0 is exactly 0
	for j := 0; j < q.C; j += 7 {
		us[2][j] = 0
	}
	dst := interleave(dsts)
	q.MulBlockAdd(dst, interleave(us), k)
	for c := range us {
		q.MulVecAdd(dsts[c], us[c])
		requireBits(t, "MulBlockAdd", c, column(dst, k, c), dsts[c])
	}
	if !math.Signbit(dst[0*k+1]) {
		t.Fatal("the skipped zero column turned row 0 of vector 1 from -0 to +0")
	}
}

func TestAccumulateScaledBlockMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	m, n := 300, 5
	as := make([]*CSC, n)
	for i := range as {
		as[i] = randSymCSC(m, 0.05, rng)
	}
	st, err := NewStack(as)
	if err != nil {
		t.Fatal(err)
	}
	x := randVecT(n, rng)
	coef := stackCoef(st, x)
	for _, k := range []int{1, 3} {
		vs := make([][]float64, k)
		for c := range vs {
			vs[c] = randVecT(m, rng)
		}
		out := make([]float64, m*k)
		st.ApplyCoefBlock(out, coef, interleave(vs), k)
		for c, v := range vs {
			want := make([]float64, m)
			st.AccumulateScaled(want, x, v)
			requireBits(t, "ApplyCoefBlock", c, column(out, k, c), want)
		}
	}
}

// stackCoef loads the per-entry weights Val[p]·x[Con[p]] ApplyCoefBlock
// reads.
func stackCoef(st *Stack, x []float64) []float64 {
	coef := make([]float64, st.NNZ())
	for p, con := range st.Con {
		coef[p] = st.Val[p] * x[con]
	}
	return coef
}

// The loaded-coefficient kernels at every block width from 1 to 17 —
// the eight-, four- and one-vector groups in every mix, k = 1 through
// the single-vector paths — on a small operator (serial branch) and one
// above the fork grain: each column must be bitwise the vector form's,
// AccumulateScaled for the stack and TMulVecInto followed by the column
// scaling for the factor.
func TestCoefKernelsMatchVectorForms(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	for _, size := range []struct{ m, n, cols int }{{12, 4, 30}, {300, 6, 700}} {
		as := make([]*CSC, size.n)
		for i := range as {
			as[i] = randSymCSC(size.m, 0.05, rng)
		}
		st, err := NewStack(as)
		if err != nil {
			t.Fatal(err)
		}
		q := randRectCSC(size.m, size.cols, 3, rng)
		x, scale := randVecT(size.n, rng), randVecT(q.C, rng)
		scale[0], x[0] = 0, 0
		coef := stackCoef(st, x)
		for k := 1; k <= 17; k++ {
			vs := make([][]float64, k)
			for c := range vs {
				vs[c] = randVecT(size.m, rng)
			}
			v := interleave(vs)
			acc, gath := make([]float64, size.m*k), make([]float64, q.C*k)
			st.ApplyCoefBlock(acc, coef, v, k)
			q.TMulBlockInto(gath, v, scale, k)
			for c, vc := range vs {
				want := make([]float64, size.m)
				st.AccumulateScaled(want, x, vc)
				requireBits(t, fmt.Sprintf("m%d k%d ApplyCoefBlock", size.m, k), c, column(acc, k, c), want)
				want = make([]float64, q.C)
				q.TMulVecInto(want, vc)
				for j := range want {
					want[j] *= scale[j]
				}
				requireBits(t, fmt.Sprintf("m%d k%d TMulBlockInto", size.m, k), c, column(gath, k, c), want)
			}
		}
	}
}

func TestBlockKernelsRejectBadShapes(t *testing.T) {
	q := randRectCSC(4, 3, 2, rand.New(rand.NewPCG(1, 1)))
	st, err := NewStack([]*CSC{randSymCSC(4, 0.5, rand.New(rand.NewPCG(2, 2)))})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"TMulBlockInto":       func() { q.TMulBlockInto(make([]float64, 6), make([]float64, 8), make([]float64, 3), 3) },
		"TMulBlockInto scale": func() { q.TMulBlockInto(make([]float64, 9), make([]float64, 12), make([]float64, 2), 3) },
		"MulBlockAdd":         func() { q.MulBlockAdd(make([]float64, 8), make([]float64, 5), 2) },
		"ApplyCoefBlock":      func() { st.ApplyCoefBlock(make([]float64, 8), make([]float64, st.NNZ()), make([]float64, 4), 2) },
		"ApplyCoefBlock coef": func() { st.ApplyCoefBlock(make([]float64, 8), make([]float64, st.NNZ()+1), make([]float64, 8), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a mis-shaped block", name)
				}
			}()
			f()
		}()
	}
}
