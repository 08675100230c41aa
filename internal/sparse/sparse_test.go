package sparse

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

func randTriplets(r, c, nnz int, rng *rand.Rand) []Triplet {
	trips := make([]Triplet, nnz)
	for i := range trips {
		trips[i] = Triplet{rng.IntN(r), rng.IntN(c), rng.Float64()*2 - 1}
	}
	return trips
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	trips := randTriplets(7, 5, 20, rng)
	m, err := NewCSR(7, 5, trips)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.New(7, 5)
	for _, tr := range trips {
		want.Data[tr.Row*5+tr.Col] += tr.Val
	}
	if !matrix.ApproxEqual(m.ToDense(), want, 1e-15) {
		t.Fatal("CSR round trip failed")
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 1, -1}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.ToDense().At(0, 0) != 3 {
		t.Fatal("duplicates not summed")
	}
	if m.NNZ() != 1 {
		t.Fatalf("cancelled entry kept: nnz = %d", m.NNZ())
	}
}

func TestCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := NewCSR(0, 2, nil); err == nil {
		t.Fatal("zero dims accepted")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m, err := NewCSR(40, 30, randTriplets(40, 30, 200, rng))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 30)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	got := m.MulVec(v)
	want := m.ToDense().MulVec(v)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("CSR MulVec disagrees with dense")
		}
	}
}

func TestCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	trips := randTriplets(6, 9, 25, rng)
	m, err := NewCSC(6, 9, trips)
	if err != nil {
		t.Fatal(err)
	}
	dense := m.ToDense()
	back := CSCFromDense(dense, 0)
	if !matrix.ApproxEqual(back.ToDense(), dense, 0) {
		t.Fatal("CSC round trip failed")
	}
}

func TestCSCFromColumns(t *testing.T) {
	cols := [][]float64{{1, 0, 2}, {0, 3, 0}}
	m, err := CSCFromColumns(3, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.R != 3 || m.C != 2 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz wrong: %d x %d, %d", m.R, m.C, m.NNZ())
	}
	if m.ToDense().At(2, 0) != 2 || m.ToDense().At(1, 1) != 3 {
		t.Fatal("entries wrong")
	}
	if _, err := CSCFromColumns(2, cols, 0); err == nil {
		t.Fatal("bad column length accepted")
	}
}

func TestCSCTMulVec(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	m, err := NewCSC(12, 7, randTriplets(12, 7, 40, rng))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 12)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	got := m.TMulVec(v)
	want := m.ToDense().T().MulVec(v)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("TMulVec disagrees with dense")
		}
	}
}

func TestCSCMulVecAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	m, err := NewCSC(8, 5, randTriplets(8, 5, 20, rng))
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 5)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	dst := make([]float64, 8)
	m.MulVecAdd(dst, u)
	want := m.ToDense().MulVec(u)
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatal("MulVecAdd disagrees with dense")
		}
	}
}

func TestCSCGramDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	m, err := NewCSC(6, 4, randTriplets(6, 4, 15, rng))
	if err != nil {
		t.Fatal(err)
	}
	got := m.GramDense()
	d := m.ToDense()
	want := matrix.MulABT(d, d, nil)
	if !matrix.ApproxEqual(got, want, 1e-12) {
		t.Fatal("GramDense != QQᵀ")
	}
	if math.Abs(m.GramTrace()-want.Trace()) > 1e-12 {
		t.Fatalf("GramTrace = %v want %v", m.GramTrace(), want.Trace())
	}
}

func TestCSCGramQuad(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	m, err := NewCSC(10, 3, randTriplets(10, 3, 12, rng))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 10)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want := m.GramDense().QuadForm(v)
	if got := m.GramQuad(v); math.Abs(got-want) > 1e-10 {
		t.Fatalf("GramQuad = %v want %v", got, want)
	}
}

func TestCSCSketchDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	q, err := NewCSC(9, 4, randTriplets(9, 4, 18, rng))
	if err != nil {
		t.Fatal(err)
	}
	s := matrix.New(5, 9)
	for i := range s.Data {
		s.Data[i] = rng.NormFloat64()
	}
	want := matrix.MulAB(s, q.ToDense(), nil).FrobNorm()
	want *= want
	if got := q.SketchDot(s); math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("SketchDot = %v want %v", got, want)
	}
}

// A factor wider than one reduction block (more than four columns) is
// summed over SketchDot's block tree; the in-place replay below the
// fork grain must give the bits SumBlocks does, and allocate nothing.
func TestSketchDotReplaysBlockTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for _, cols := range []int{5, 6, 13, 40} {
		q, err := NewCSC(9, cols, randTriplets(9, cols, 3*cols, rng))
		if err != nil {
			t.Fatal(err)
		}
		s := matrix.New(3, 9)
		for i := range s.Data {
			s.Data[i] = rng.NormFloat64()
		}
		want := parallel.SumBlocks(q.C, 4, func(lo, hi int) float64 { return sketchDotCols(q, s, lo, hi) })
		if got := q.SketchDot(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d columns: SketchDot = %v, block tree %v", cols, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { q.SketchDot(s) }); allocs != 0 {
			t.Errorf("%d columns: SketchDot allocates %.1f per call, want 0", cols, allocs)
		}
	}
}

func TestCSCScale(t *testing.T) {
	m, err := NewCSC(2, 2, []Triplet{{0, 0, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Scale(0.5)
	if s.ToDense().At(0, 0) != 1 || s.ToDense().At(1, 1) != 1.5 {
		t.Fatal("Scale wrong")
	}
	if m.ToDense().At(0, 0) != 2 {
		t.Fatal("Scale mutated original")
	}
}

func TestQuickCSRMulVecAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		r, c := 1+int(seed%9), 1+int((seed/9)%9)
		nnz := int(seed % 40)
		m, err := NewCSR(r, c, randTriplets(r, c, nnz, rng))
		if err != nil {
			return false
		}
		v := make([]float64, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		got := m.MulVec(v)
		want := m.ToDense().MulVec(v)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
