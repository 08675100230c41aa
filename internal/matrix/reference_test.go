package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refDotManyRows is dotManyRows as it stood before the four-chain
// loop: one constraint per pass over p.
func refDotManyRows(out []float64, as []*Dense, scale float64, p *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		a := as[i]
		var s float64
		for k, v := range a.Data {
			s += v * p.Data[k]
		}
		out[i] = scale * s
	}
}

func requireSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestDotManyMatchesReference: the four-chain DotMany is bitwise the
// one-chain loop for every remainder of the constraint count mod 4, at
// dense-solve's shapes and at one large enough to fork.
func TestDotManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 4))
	for _, m := range []int{1, 3, 8, 10, 24, 80} {
		for n := 1; n <= 13; n++ {
			as := make([]*Dense, n)
			for i := range as {
				as[i] = randDenseN(m, m, rng)
			}
			p := randDenseN(m, m, rng)
			scale := 0.5 + rng.Float64()
			got, want := make([]float64, n), make([]float64, n)
			DotMany(got, as, scale, p)
			refDotManyRows(want, as, scale, p, 0, n)
			requireSameBits(t, fmt.Sprintf("m=%d n=%d", m, n), got, want)
		}
	}
}

// TestAXPYManyMatchesAXPY: the fused update is bitwise one AXPY per
// term in order, for 1…9 terms (zero to two groups of four plus every
// remainder), repeated indices included, on serial and blocked sizes.
func TestAXPYManyMatchesAXPY(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 5))
	for _, m := range []int{1, 8, 24, 70} {
		xs := make([]*Dense, 6)
		for i := range xs {
			xs[i] = randDenseN(m, m, rng)
		}
		for nt := 1; nt <= 9; nt++ {
			idx, s := make([]int, nt), make([]float64, nt)
			for j := range idx {
				idx[j], s[j] = rng.IntN(len(xs)), rng.NormFloat64()
			}
			got := randDenseN(m, m, rng)
			want := got.Clone()
			AXPYMany(got, s, xs, idx)
			for j, i := range idx {
				AXPY(want, s[j], xs[i])
			}
			requireSameBits(t, fmt.Sprintf("m=%d terms=%d", m, nt), got.Data, want.Data)
		}
	}
}
