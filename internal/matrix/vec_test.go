package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	VecAdd(dst, a, b)
	if dst[0] != 5 || dst[2] != 9 {
		t.Fatal("VecAdd wrong")
	}
	VecScale(dst, 2, a)
	if dst[1] != 4 {
		t.Fatal("VecScale wrong")
	}
	VecAXPY(dst, 1, a) // 3a
	if dst[2] != 9 {
		t.Fatal("VecAXPY wrong")
	}
	if got := VecDot(a, b); got != 32 {
		t.Fatalf("VecDot = %v want 32", got)
	}
	if got := VecSum(a); got != 6 {
		t.Fatalf("VecSum = %v want 6", got)
	}
	if got := VecNorm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("VecNorm2 = %v want 5", got)
	}
	if VecMax(a) != 3 || VecMin(a) != 1 {
		t.Fatal("VecMax/VecMin wrong")
	}
}

func TestVecMinNegatives(t *testing.T) {
	if got := VecMin([]float64{-2, -7, -1}); got != -7 {
		t.Fatalf("VecMin = %v want -7", got)
	}
}

func TestOnesBasisClone(t *testing.T) {
	o := Ones(4)
	if VecSum(o) != 4 {
		t.Fatal("Ones wrong")
	}
	c := VecClone(o)
	c[0] = 9
	if o[0] != 1 {
		t.Fatal("VecClone shares storage")
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if math.Abs(n-5) > 1e-15 || math.Abs(VecNorm2(v)-1) > 1e-15 {
		t.Fatal("Normalize wrong")
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

func TestVecDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VecDot length mismatch did not panic")
		}
	}()
	VecDot([]float64{1}, []float64{1, 2})
}

// Property: Cauchy–Schwarz |a·b| <= |a||b|.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, v := range append(VecClone(a), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		lhs := math.Abs(VecDot(a, b))
		rhs := VecNorm2(a) * VecNorm2(b)
		return lhs <= rhs*(1+1e-10)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
