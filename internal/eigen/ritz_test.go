package eigen

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/matrix"
)

// lanczosMaxReference is LanczosMax as it ran before the top-Ritz
// tracker: a full tqli of T_j (topRitz) after every Krylov step. The
// bit-identity tests hold the tracked loop to it. onStep, when non-nil,
// sees each step's top Ritz value.
func lanczosMaxReference(apply func(in, out []float64), dim int, opts LanczosOpts, onStep func(lam float64)) (float64, error) {
	if dim <= 0 {
		return 0, errors.New("eigen: LanczosMax: dimension must be positive")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 128
	}
	if maxIter > dim {
		maxIter = dim
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewPCG(0x1a2b3c4d, 0x5e6f7081))
	}
	ws := &LanczosWS{}
	ws.ensure(dim, maxIter)

	if dim == 1 {
		out := ws.w[:1]
		ws.v[0] = 1
		apply(ws.v[:1], out)
		return out[0], nil
	}

	v := ws.v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if matrix.Normalize(v) == 0 {
		return 0, errors.New("eigen: LanczosMax: degenerate start vector")
	}

	alphas := ws.alphas[:0]
	betas := ws.betas[:0]
	w := ws.w
	prev := math.Inf(-1)

	for j := 0; j < maxIter; j++ {
		bj := ws.row(j, dim)
		copy(bj, v)
		basis := ws.basis[:j+1]
		apply(v, w)
		alpha := matrix.VecDot(w, v)
		alphas = append(alphas, alpha)
		reorthogonalize(w, basis, ws.coeffs[:j+1])
		reorthogonalize(w, basis, ws.coeffs[:j+1])
		beta := matrix.VecNorm2(w)
		lam, err := topRitz(alphas, betas, ws)
		if err != nil {
			return 0, err
		}
		if onStep != nil {
			onStep(lam)
		}
		scale := math.Max(1, math.Abs(lam))
		if beta <= 1e-14*scale {
			return lam, nil
		}
		if j >= 2 && math.Abs(lam-prev) <= tol*scale {
			return lam, nil
		}
		prev = lam
		betas = append(betas, beta)
		matrix.VecScale(v, 1/beta, w)
	}
	return prev, nil
}

// checkAgainstReference runs LanczosMax (on ws) and the reference, each
// on a fresh operator from mk and the same start vector, and fails
// unless value bits, error and number of operator applications (the
// exit step) all agree.
func checkAgainstReference(t *testing.T, name string, mk func() func(in, out []float64), dim int, opts LanczosOpts, seed uint64, ws *LanczosWS) {
	t.Helper()
	var calls, refCalls int
	counted := func(n *int) func(in, out []float64) {
		apply := mk()
		return func(in, out []float64) { *n++; apply(in, out) }
	}
	ref := opts
	ref.Rng = rand.New(rand.NewPCG(seed, 17))
	want, wantErr := lanczosMaxReference(counted(&refCalls), dim, ref, nil)
	opts.Rng = rand.New(rand.NewPCG(seed, 17))
	opts.WS = ws
	got, err := LanczosMax(counted(&calls), dim, opts)
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) || calls != refCalls {
		t.Fatalf("%s dim=%d MaxIter=%d Tol=%g: got (%v, %v) after %d steps, reference (%v, %v) after %d",
			name, dim, opts.MaxIter, opts.Tol, got, err, calls, want, wantErr, refCalls)
	}
}

func denseOp(a *matrix.Dense) func() func(in, out []float64) {
	return func() func(in, out []float64) { return denseApply(a) }
}

// testOperators are the spectra the bit-identity test covers.
var testOperators = []struct {
	name  string
	build func(n int, rng *rand.Rand) *matrix.Dense
}{
	{"psd", func(n int, rng *rand.Rand) *matrix.Dense { return randPSD(n, n, rng) }},
	{"lowrank", func(n int, rng *rand.Rand) *matrix.Dense { return randPSD(n, 1+n/8, rng) }},
	{"indefinite", randSym},
	{"zero", func(n int, _ *rand.Rand) *matrix.Dense { return matrix.New(n, n) }},
	{"repeated", repeatedTop},
}

// repeatedTop builds Q·diag(λ)·Qᵀ for a random orthogonal Q whose top
// eigenvalue 2.5 is repeated up to three times above a spectrum in
// [0, 2).
func repeatedTop(n int, rng *rand.Rand) *matrix.Dense {
	dec, err := SymEigen(randSym(n, rng))
	if err != nil {
		panic(err)
	}
	q := dec.Vectors
	b := q.Clone()
	for j := 0; j < n; j++ {
		lam := 2 * rng.Float64()
		if j < 3 {
			lam = 2.5
		}
		for i := 0; i < n; i++ {
			b.Data[i*n+j] *= lam
		}
	}
	a := matrix.MulABT(b, q, nil)
	a.Symmetrize()
	return a
}

var (
	identityTols     = []float64{1e-3, 1e-6, 1e-8, 1e-12, 2}
	identityMaxIters = []int{0, 1, 2, 3, 8, 48, 256}
)

func TestLanczosMaxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 16))
	ws := &LanczosWS{} // shared: every call must reset the tracker
	for dim := 1; dim <= 64; dim++ {
		for _, op := range testOperators {
			a := op.build(dim, rng)
			for _, tol := range identityTols {
				for _, mi := range identityMaxIters {
					opts := LanczosOpts{MaxIter: mi, Tol: tol}
					checkAgainstReference(t, op.name, denseOp(a), dim, opts, uint64(dim), ws)
				}
			}
		}
	}
}

// Tolerances set exactly at a step's Ritz movement put the convergence
// test on its boundary, where only the QL rounding decides it: the
// bracket must leave every such step to tqli.
func TestLanczosMaxBoundaryTolerances(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	ws := &LanczosWS{}
	for trial := 0; trial < 60; trial++ {
		dim := 4 + trial%40
		op := testOperators[trial%len(testOperators)]
		a := op.build(dim, rng)
		var lams []float64
		record := func(lam float64) { lams = append(lams, lam) }
		opts := LanczosOpts{MaxIter: 256, Tol: 1e-300, Rng: rand.New(rand.NewPCG(uint64(trial), 17))}
		if _, err := lanczosMaxReference(denseApply(a), dim, opts, record); err != nil {
			t.Fatal(err)
		}
		for j := 2; j < len(lams); j++ {
			scale := math.Max(1, math.Abs(lams[j]))
			tol := math.Abs(lams[j]-lams[j-1]) / scale
			if !(tol > 0) {
				continue
			}
			for _, tt := range []float64{math.Nextafter(tol, 0), tol, math.Nextafter(tol, 1)} {
				checkAgainstReference(t, op.name+" boundary", denseOp(a), dim, LanczosOpts{MaxIter: 256, Tol: tt}, uint64(trial), ws)
			}
		}
	}
}

// A converging call runs tqli about once, not once per Krylov step.
func TestLanczosMaxRunsQLOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	a := randPSD(64, 64, rng)
	ws := &LanczosWS{}
	calls := 0
	apply := func(in, out []float64) { calls++; a.MulVecTo(out, in) }
	if _, err := LanczosMax(apply, 64, LanczosOpts{MaxIter: 64, Tol: 1e-8, WS: ws}); err != nil {
		t.Fatal(err)
	}
	if calls < 8 || ws.rt.qlRuns > 2 {
		t.Fatalf("%d Krylov steps ran %d QL decompositions", calls, ws.rt.qlRuns)
	}
}

func TestLanczosMaxNonFiniteAndExtremeScales(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	fill := func(x float64) func() func(in, out []float64) {
		return func() func(in, out []float64) {
			return func(in, out []float64) {
				for i := range out {
					out[i] = x
				}
			}
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := LanczosMax(fill(x)(), 12, LanczosOpts{})
		if got != 0 || err != ErrNoConvergence {
			t.Fatalf("constant %v operator: got (%v, %v), want (0, ErrNoConvergence)", x, got, err)
		}
	}
	ws := &LanczosWS{}
	for _, dim := range []int{2, 3, 9, 24} {
		base := randPSD(dim, dim, rng)
		ind := randSym(dim, rng)
		for _, tol := range identityTols {
			for _, mi := range identityMaxIters {
				opts := LanczosOpts{MaxIter: mi, Tol: tol}
				for _, x := range []float64{math.NaN(), math.Inf(1)} {
					checkAgainstReference(t, fmt.Sprint("constant ", x), fill(x), dim, opts, 1, ws)
				}
				// A fault that appears mid-run: the tracker must hand
				// over to tqli with prev made exact.
				for _, at := range []int{2, 3, 5} {
					faulty := func() func(in, out []float64) {
						calls := 0
						return func(in, out []float64) {
							calls++
							base.MulVecTo(out, in)
							if calls == at {
								out[0] = math.NaN()
							}
						}
					}
					checkAgainstReference(t, fmt.Sprint("fault at step ", at), faulty, dim, opts, 2, ws)
				}
				for _, s := range []float64{1e-300, 1e-150, 1e150, 1e200, 1e300} {
					for _, a := range []*matrix.Dense{base, ind} {
						scaled := func() func(in, out []float64) {
							return func(in, out []float64) {
								a.MulVecTo(out, in)
								matrix.VecScale(out, s, out)
							}
						}
						checkAgainstReference(t, fmt.Sprint("scale ", s), scaled, dim, opts, 3, ws)
					}
				}
			}
		}
	}
}

// qlEigenvalues returns every eigenvalue of the tridiagonal by tqli.
func qlEigenvalues(t *testing.T, alphas, betas []float64) []float64 {
	n := len(alphas)
	d := append([]float64(nil), alphas...)
	e := make([]float64, n)
	copy(e[1:], betas)
	if err := tqli(d, e, n, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// hasZeroPivot reports whether the unguarded LDLᵀ pivots of T − xI
// hit an exact zero, the case sturm's pivmin guard exists for.
func hasZeroPivot(alphas, betas []float64, x float64) bool {
	var d float64
	for i, a := range alphas {
		if i == 0 {
			d = a - x
		} else {
			d = a - x - betas[i-1]*betas[i-1]/d
		}
		if d == 0 {
			return true
		}
	}
	return false
}

func TestSturmCountMatchesQL(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	zeroPivots := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + trial%24
		scale := []float64{1e-150, 1, 1e150}[trial%3]
		alphas := make([]float64, n)
		betas := make([]float64, n-1)
		integer := trial%4 == 1 // exact-zero pivots at integer shifts
		for i := range alphas {
			if integer {
				alphas[i] = float64(rng.IntN(5) - 2)
			} else {
				alphas[i] = rng.NormFloat64()
			}
		}
		for i := range betas {
			switch {
			case trial%5 == 2 && rng.IntN(3) == 0:
				betas[i] = 0 // split matrix
			case integer:
				betas[i] = float64(rng.IntN(3) - 1)
			default:
				betas[i] = rng.NormFloat64()
			}
		}
		for i := range alphas {
			alphas[i] *= scale
		}
		maxB2 := 0.0
		for i := range betas {
			betas[i] *= scale
			maxB2 = math.Max(maxB2, betas[i]*betas[i])
		}
		pivmin := 0x1p-1022 * math.Max(1, maxB2)
		eig := qlEigenvalues(t, alphas, betas)
		norm := 0.0
		for _, v := range eig {
			norm = math.Max(norm, math.Abs(v))
		}
		margin := 1e-10 * math.Max(norm, scale)
		shifts := []float64{alphas[0], alphas[n-1], 0, scale * (rng.Float64()*6 - 3)}
		for _, v := range eig {
			shifts = append(shifts, v+scale*0.5, v-scale*1e-3)
		}
		for _, x := range shifts {
			// Eigenvalues within margin of x may count either way.
			below, near := 0, 0
			for _, v := range eig {
				switch {
				case math.Abs(v-x) <= margin:
					near++
				case v < x:
					below++
				}
			}
			if c, _, _ := sturm(alphas, betas, x, pivmin); c < below || c > below+near {
				t.Fatalf("trial %d (n=%d, scale %g): Sturm count at %v is %d, tqli has %d eigenvalues below and %d at it", trial, n, scale, x, c, below, near)
			}
			if hasZeroPivot(alphas, betas, x) {
				zeroPivots++
			}
		}
	}
	if zeroPivots == 0 {
		t.Fatal("no shift produced an exact-zero pivot")
	}
	t.Logf("%d checked shifts had an exact-zero pivot", zeroPivots)
}

// Above the spectrum, G and H are Σ 1/(x−λₖ) and Σ 1/(x−λₖ)², and the
// probes the tracker derives from them fall on either side of λ_max.
func TestSturmDerivatives(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	for trial := 0; trial < 500; trial++ {
		n := 1 + trial%40
		alphas := make([]float64, n)
		betas := make([]float64, n-1)
		for i := range alphas {
			alphas[i] = rng.NormFloat64()
		}
		for i := range betas {
			betas[i] = rng.NormFloat64()
		}
		eig := qlEigenvalues(t, alphas, betas)
		top := math.Inf(-1)
		for _, v := range eig {
			top = math.Max(top, v)
		}
		x := top + math.Pow(10, -rng.Float64()*6)
		var g, h float64
		for _, v := range eig {
			g += 1 / (x - v)
			h += 1 / ((x - v) * (x - v))
		}
		c, gotG, gotH := sturm(alphas, betas, x, 0x1p-1022)
		if c != n || math.Abs(gotG-g) > 1e-8*g || math.Abs(gotH-h) > 1e-8*h {
			t.Fatalf("trial %d: count %d G %v H %v, want %d %v %v", trial, c, gotG, gotH, n, g, h)
		}
		fn := float64(n)
		laguerre := x - fn/(g+math.Sqrt(math.Max(0, (fn-1)*(fn*h-g*g))))
		slack := 1e-12 * math.Max(1, math.Abs(top))
		if lower := x - g/h; lower > top+slack || laguerre < top-slack {
			t.Fatalf("trial %d: probes %v (lower) and %v (Laguerre) do not bracket %v", trial, lower, laguerre, top)
		}
	}
}

// FuzzLanczosTopRitz holds LanczosMax to the reference loop on fuzzed
// symmetric operators: mode's low bit picks int8 entries or raw float64
// bits (NaN, Inf and extreme scales included), the rest a power-of-16
// scale; the entries fill the upper triangle cyclically.
func FuzzLanczosTopRitz(f *testing.F) {
	f.Add(uint8(12), 1e-6, uint16(48), []byte{0, 3, 250, 17, 99, 1, 2})
	f.Add(uint8(40), 1e-12, uint16(256), []byte{128, 5, 5, 5, 200})
	f.Add(uint8(7), 2.0, uint16(3), []byte{1, 0, 0, 0, 0, 0, 0, 248, 127})
	ws := &LanczosWS{}
	f.Fuzz(func(t *testing.T, dim uint8, tol float64, maxIter uint16, raw []byte) {
		n := 1 + int(dim)%48
		a := matrix.New(n, n)
		if len(raw) > 1 {
			mode, body := raw[0], raw[1:]
			scale := math.Ldexp(1, 4*(int(mode>>1)-64))
			var vals []float64
			if mode&1 == 0 {
				for _, b := range body {
					vals = append(vals, float64(int8(b))/16*scale)
				}
			} else {
				for i := 0; i+8 <= len(body); i += 8 {
					var bits uint64
					for k := 0; k < 8; k++ {
						bits |= uint64(body[i+k]) << (8 * k)
					}
					vals = append(vals, math.Float64frombits(bits)*scale)
				}
			}
			for k := 0; len(vals) > 0 && k < n*(n+1)/2; k++ {
				i, j := triIndex(k)
				a.Set(i, j, vals[k%len(vals)])
				a.Set(j, i, vals[k%len(vals)])
			}
		}
		opts := LanczosOpts{MaxIter: int(maxIter) % 300, Tol: tol}
		checkAgainstReference(t, "fuzz", denseOp(a), n, opts, uint64(dim), ws)
	})
}

// triIndex maps k = 0, 1, 2, ... onto the upper triangle (i ≤ j) row by
// row of columns: (0,0), (0,1), (1,1), (0,2), ...
func triIndex(k int) (int, int) {
	j := 0
	for (j+1)*(j+2)/2 <= k {
		j++
	}
	return k - j*(j+1)/2, j
}

var lanczosSink float64

// BenchmarkLanczosMax times the λ_max refresh on random PSD operators
// and reports the QL runs and Sturm evaluations per call, with the
// Krylov steps per call (the QL runs of the per-step loop).
func BenchmarkLanczosMax(b *testing.B) {
	for _, dim := range []int{12, 16, 64, 256} {
		a := randPSD(dim, dim, rand.New(rand.NewPCG(uint64(dim), 3)))
		for _, tol := range []float64{1e-6, 1e-8, 1e-12} {
			b.Run(fmt.Sprintf("dim=%d/tol=%g", dim, tol), func(b *testing.B) {
				ws := &LanczosWS{}
				steps := 0
				apply := func(in, out []float64) { steps++; a.MulVecTo(out, in) }
				rng := rand.New(rand.NewPCG(1, 2))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lam, err := LanczosMax(apply, dim, LanczosOpts{MaxIter: 256, Tol: tol, Rng: rng, WS: ws})
					if err != nil {
						b.Fatal(err)
					}
					lanczosSink = lam
				}
				b.ReportMetric(float64(ws.rt.qlRuns)/float64(b.N), "tqli/op")
				b.ReportMetric(float64(ws.rt.sturmEvals)/float64(b.N), "evals/op")
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}
