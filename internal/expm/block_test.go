package expm

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/matrix"
)

// refExpMV is the single-vector segmented Taylor loop written out with
// the matrix vector kernels, the form ExpMVInto had before it became
// the one-chain case of ExpMVBlockInto. It pins the k=1 path.
func refExpMV(dst []float64, apply func(in, out []float64), v []float64, normUB, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-12
	}
	if normUB < 0 {
		normUB = 0
	}
	m := len(v)
	segments := max(int(math.Ceil(normUB/expMVSegNorm)), 1)
	invS := 1.0 / float64(segments)
	cur := dst
	copy(cur, v)
	var logScale float64
	if n := matrix.Normalize(cur); n > 0 {
		logScale = math.Log(n)
	} else {
		return 0
	}
	term, next, sum := make([]float64, m), make([]float64, m), make([]float64, m)
	for seg := 0; seg < segments; seg++ {
		copy(sum, cur)
		copy(term, cur)
		for j := 1; j <= 64; j++ {
			apply(term, next)
			f := invS / float64(j)
			for i := range next {
				next[i] *= f
			}
			term, next = next, term
			matrix.VecAXPY(sum, 1, term)
			if matrix.VecNorm2(term) <= tol*matrix.VecNorm2(sum) {
				break
			}
		}
		copy(cur, sum)
		if n := matrix.Normalize(cur); n > 0 {
			logScale += math.Log(n)
		} else {
			return logScale
		}
	}
	return logScale
}

// blockApply lifts a vector operator to the interleaved block layout:
// chain c is gathered, mapped, and scattered back, so every chain sees
// exactly the vector operator's arithmetic.
func blockApply(m, k int, apply func(in, out []float64)) func(in, out []float64) {
	vin, vout := make([]float64, m), make([]float64, m)
	return func(in, out []float64) {
		for c := 0; c < k; c++ {
			for i := range vin {
				vin[i] = in[i*k+c]
			}
			apply(vin, vout)
			for i, x := range vout {
				out[i*k+c] = x
			}
		}
	}
}

// diagApply is the O(m) operator diag(d), for dimensions large enough
// to split the norm reductions into several blocks.
func diagApply(d []float64) func(in, out []float64) {
	return func(in, out []float64) {
		for i, x := range in {
			out[i] = d[i] * x
		}
	}
}

// countApply wraps apply with a call counter.
func countApply(apply func(in, out []float64), n *int) func(in, out []float64) {
	return func(in, out []float64) {
		*n++
		apply(in, out)
	}
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkBlock runs ExpMVBlockInto over the chains and ExpMVInto (and
// the reference loop) on each chain alone, requiring bitwise-equal
// vectors and log-scales. It returns each chain's apply count when run
// alone, so callers can confirm the chains stop at different terms.
func checkBlock(t *testing.T, apply func(in, out []float64), chains [][]float64, normUB, tol float64) []int {
	t.Helper()
	k, m := len(chains), len(chains[0])
	v := make([]float64, m*k)
	for c, ch := range chains {
		for i, x := range ch {
			v[i*k+c] = x
		}
	}
	dst := make([]float64, m*k)
	logs := make([]float64, k)
	var sc MVScratch
	ExpMVBlockInto(dst, logs, blockApply(m, k, apply), v, 1, normUB, tol, &sc)
	counts := make([]int, k)
	for c, ch := range chains {
		want := make([]float64, m)
		wantLog := ExpMVInto(want, countApply(apply, &counts[c]), ch, normUB, tol, nil)
		ref := make([]float64, m)
		refLog := refExpMV(ref, apply, ch, normUB, tol)
		if i := bitsEqual(want, ref); i >= 0 || math.Float64bits(wantLog) != math.Float64bits(refLog) {
			t.Fatalf("chain %d: ExpMVInto differs from the reference loop (entry %d, log %v vs %v)", c, i, wantLog, refLog)
		}
		got := make([]float64, m)
		for i := range got {
			got[i] = dst[i*k+c]
		}
		if i := bitsEqual(got, want); i >= 0 {
			t.Fatalf("chain %d entry %d: block %v, single %v", c, i, got[i], want[i])
		}
		if math.Float64bits(logs[c]) != math.Float64bits(wantLog) {
			t.Fatalf("chain %d log-scale: block %v, single %v", c, logs[c], wantLog)
		}
	}
	return counts
}

func randVec(m int, rng *rand.Rand) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestExpMVBlockMatchesSingleChains(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	const m = 10
	a := randPSD(m, 4, rng)
	apply := applyDense(a)
	random := func(k int) [][]float64 {
		cs := make([][]float64, k)
		for c := range cs {
			cs[c] = randVec(m, rng)
		}
		return cs
	}
	t.Run("k1", func(t *testing.T) { checkBlock(t, apply, random(1), 6, 1e-12) })
	t.Run("k5", func(t *testing.T) { checkBlock(t, apply, random(5), 6, 1e-10) })
	t.Run("segments", func(t *testing.T) {
		// normUB 30 splits exp(A) into four segments of exp(A/4).
		big := matrix.New(m, m)
		matrix.Scale(big, 30/a.MaxAbs(), a)
		checkBlock(t, applyDense(big), random(4), 30, 1e-12)
	})
	t.Run("normUB0", func(t *testing.T) { checkBlock(t, apply, random(3), 0, 0) })
	t.Run("zero-chain", func(t *testing.T) {
		cs := random(4)
		cs[2] = make([]float64, m)
		checkBlock(t, apply, cs, 6, 1e-12)
	})
	t.Run("all-zero", func(t *testing.T) {
		checkBlock(t, apply, [][]float64{make([]float64, m), make([]float64, m)}, 6, 1e-12)
	})
	t.Run("uneven-stops", func(t *testing.T) {
		// diag(0, 0.5, …, 7.5): e₀ lies in the kernel and stops after one
		// term, e₁₅ sees the largest eigenvalue and runs longest.
		d := make([]float64, 16)
		for i := range d {
			d[i] = 0.5 * float64(i)
		}
		chains := make([][]float64, 3)
		for c, j := range []int{0, 4, 15} {
			chains[c] = make([]float64, len(d))
			chains[c][j] = 1
		}
		counts := checkBlock(t, diagApply(d), chains, 8, 1e-12)
		if counts[0] == counts[1] || counts[1] == counts[2] {
			t.Fatalf("chains stopped after %v terms; the case needs distinct stops", counts)
		}
	})
	t.Run("multi-block-norms", func(t *testing.T) {
		// m = 9000 > 4096: every chain norm is a three-block reduction.
		d := make([]float64, 9000)
		for i := range d {
			d[i] = 4 * rng.Float64()
		}
		checkBlock(t, diagApply(d), [][]float64{randVec(len(d), rng), randVec(len(d), rng)}, 4, 1e-12)
	})
}

func TestExpMVBlockLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("block of 7 entries over 2 chains did not panic")
		}
	}()
	ExpMVBlockInto(make([]float64, 7), make([]float64, 2), func(in, out []float64) {}, make([]float64, 7), 1, 1, 0, nil)
}

// halveApply is apply followed by an explicit ×½ pass: the form the
// operator oracles used for exp(Ψ/2) before t entered the coefficients.
func halveApply(apply func(in, out []float64)) func(in, out []float64) {
	return func(in, out []float64) {
		apply(in, out)
		for i := range out {
			out[i] *= 0.5
		}
	}
}

// checkHalf runs the chains through exp(A/2) twice, as t = ½ over A and
// as t = 1 over the halved apply, and requires bitwise-equal vectors
// and log-scales.
func checkHalf(t *testing.T, apply func(in, out []float64), chains [][]float64, normUB, tol float64) {
	t.Helper()
	k, m := len(chains), len(chains[0])
	v := interleaveChains(chains)
	got, gotLogs := make([]float64, m*k), make([]float64, k)
	ExpMVBlockInto(got, gotLogs, blockApply(m, k, apply), v, 0.5, normUB, tol, nil)
	want, wantLogs := make([]float64, m*k), make([]float64, k)
	ExpMVBlockInto(want, wantLogs, blockApply(m, k, halveApply(apply)), v, 1, normUB, tol, nil)
	if i := bitsEqual(got, want); i >= 0 {
		t.Fatalf("entry %d (chain %d): t=½ gives %v, halved apply %v", i, i%k, got[i], want[i])
	}
	if i := bitsEqual(gotLogs, wantLogs); i >= 0 {
		t.Fatalf("chain %d log-scale: t=½ gives %v, halved apply %v", i, gotLogs[i], wantLogs[i])
	}
}

func interleaveChains(chains [][]float64) []float64 {
	k, m := len(chains), len(chains[0])
	v := make([]float64, m*k)
	for c, ch := range chains {
		for i, x := range ch {
			v[i*k+c] = x
		}
	}
	return v
}

// A power-of-two t folded into the Taylor coefficients is exact: every
// chain of exp(½·A) equals, bit for bit, the chain of exp(A') over an
// apply that halves A's output. The cases cover a zero chain, a chain
// that converges after one term while others run on, all-active blocks
// of eight chains (the register-blocked sum path) and normUB ≥ 16,
// which splits the series into several segments.
func TestExpMVBlockHalfStepMatchesHalvedApply(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	const m = 12
	a := randPSD(m, 5, rng)
	big := matrix.New(m, m)
	matrix.Scale(big, 40/a.MaxAbs(), a)
	random := func(k int) [][]float64 {
		cs := make([][]float64, k)
		for c := range cs {
			cs[c] = randVec(m, rng)
		}
		return cs
	}
	t.Run("segments", func(t *testing.T) {
		checkHalf(t, applyDense(big), random(8), 20, 1e-12)
	})
	t.Run("zero-chain", func(t *testing.T) {
		cs := random(5)
		cs[3] = make([]float64, m)
		checkHalf(t, applyDense(big), cs, 20, 1e-10)
	})
	t.Run("early-stop", func(t *testing.T) {
		// diag(0, 2.5, …, 37.5): e₀ lies in the kernel and stops after
		// one term; the others run through three segments.
		d := make([]float64, 16)
		for i := range d {
			d[i] = 2.5 * float64(i)
		}
		chains := make([][]float64, 6)
		for c := range chains {
			chains[c] = randVec(len(d), rng)
		}
		chains[0] = make([]float64, len(d))
		chains[0][0] = 1
		var n0, n1 int
		ExpMVInto(make([]float64, len(d)), countApply(diagApply(d), &n0), chains[0], 19, 1e-12, nil)
		ExpMVInto(make([]float64, len(d)), countApply(diagApply(d), &n1), chains[1], 19, 1e-12, nil)
		if n0 >= n1 {
			t.Fatalf("kernel chain took %d applies, random chain %d; the case needs an early stop", n0, n1)
		}
		checkHalf(t, diagApply(d), chains, 19, 1e-12)
	})
}
