package parallel

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 5000, 100000} {
		seen := make([]atomic.Int32, max(n, 1))
		For(n, func(i int) { seen[i].Add(1) })
		for i := 0; i < n; i++ {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, got)
			}
		}
	}
}

func TestForBlockDisjointCover(t *testing.T) {
	for _, n := range []int{1, 3, 1024, 4097, 65536} {
		var total atomic.Int64
		ForBlock(n, 16, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
			}
			total.Add(int64(hi - lo))
		})
		if total.Load() != int64(n) {
			t.Fatalf("n=%d: covered %d elements", n, total.Load())
		}
	}
}

func TestForBlockZeroAndNegative(t *testing.T) {
	called := false
	ForBlock(0, 0, func(lo, hi int) { called = true })
	ForBlock(-5, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestDo(t *testing.T) {
	Do() // no-op
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
}

func TestSumFloatMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1023, 1024, 1025, 100000} {
		got := SumFloat(n, func(i int) float64 { return float64(i) })
		want := float64(n) * float64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("n=%d: SumFloat=%v want %v", n, got, want)
		}
	}
}

// SumFloat must be bit-identical regardless of GOMAXPROCS because the
// block decomposition is fixed by n alone.
func TestSumFloatDeterministicAcrossWorkers(t *testing.T) {
	n := 200000
	f := func(i int) float64 { return math.Sin(float64(i)) * 1e-3 }
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	s1 := SumFloat(n, f)
	runtime.GOMAXPROCS(max(old, 4))
	s2 := SumFloat(n, f)
	if s1 != s2 {
		t.Fatalf("nondeterministic sum: %v vs %v", s1, s2)
	}
}

func TestMaxFloat(t *testing.T) {
	for _, n := range []int{1, 2, 100, 65536} {
		got := MaxFloat(n, func(i int) float64 { return -math.Abs(float64(i) - float64(n)/3) })
		want := math.Inf(-1)
		for i := 0; i < n; i++ {
			v := -math.Abs(float64(i) - float64(n)/3)
			if v > want {
				want = v
			}
		}
		if got != want {
			t.Fatalf("n=%d: MaxFloat=%v want %v", n, got, want)
		}
	}
}

func TestMaxFloatNegativeValues(t *testing.T) {
	vals := []float64{-5, -3, -8, -1, -9}
	got := MaxFloat(len(vals), func(i int) float64 { return vals[i] })
	if got != -1 {
		t.Fatalf("MaxFloat=%v want -1", got)
	}
}

func TestSumBlocksGrain(t *testing.T) {
	n := 10000
	got := SumBlocks(n, 100, func(lo, hi int) float64 {
		return float64(hi - lo)
	})
	if got != float64(n) {
		t.Fatalf("SumBlocks=%v want %v", got, float64(n))
	}
}

func TestQuickSumMatchesSequential(t *testing.T) {
	f := func(vals []float64) bool {
		// Exact equality: deterministic block tree vs the same block
		// tree computed by hand.
		n := len(vals)
		got := SumFloat(n, func(i int) float64 { return vals[i] })
		blocks := blockCount(n, 0)
		var want float64
		for b := 0; b < blocks; b++ {
			lo, hi := b*n/blocks, (b+1)*n/blocks
			var p float64
			for i := lo; i < hi; i++ {
				p += vals[i]
			}
			want += p
		}
		if n == 0 {
			want = 0
		}
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.AddWork(10)
	s.AddDepth(3)
	s.Add(5, 2)
	if s.Work() != 15 || s.Depth() != 5 {
		t.Fatalf("work=%d depth=%d, want 15, 5", s.Work(), s.Depth())
	}
	s.Reset()
	if s.Work() != 0 || s.Depth() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.AddWork(1)
	s.AddDepth(1)
	s.Add(1, 1)
	s.Reset()
	if s.Work() != 0 || s.Depth() != 0 {
		t.Fatal("nil Stats must act as no-op")
	}
}

func TestStatsConcurrent(t *testing.T) {
	var s Stats
	For(1000, func(i int) { s.Add(1, 0) })
	if s.Work() != 1000 {
		t.Fatalf("work=%d want 1000", s.Work())
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d)=%d want %d", n, got, want)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers() < 1")
	}
}

// forkBody does flops multiply-adds per item over a small cache-resident
// vector: the shape of a dot-product row of the dense kernels.
func forkBody(v []float64, out []float64, flops int) func(lo, hi int) {
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := 0; k < flops/2; k++ {
				s += v[k&63] * v[(k+i)&63]
			}
			out[i] = s
		}
	}
}

// BenchmarkForkJoin sizes forkFloor: two items of the given work each,
// run as one sequential call ("serial") or forked into two blocks
// ("fork"). The fork pays once its ns/op falls clearly below serial's;
// "empty" is the bare fork+join cost.
func BenchmarkForkJoin(b *testing.B) {
	v := make([]float64, 64)
	for i := range v {
		v[i] = 1 + float64(i)/64
	}
	out := make([]float64, 2)
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			ForBlock(2, 1, func(lo, hi int) {})
		}
	})
	for _, flops := range []int{4096, 16384, 32768, 65536} {
		body := forkBody(v, out, flops)
		b.Run(fmt.Sprintf("flops=%d/serial", flops), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				body(0, 2)
			}
		})
		b.Run(fmt.Sprintf("flops=%d/fork", flops), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				ForBlock(2, 1, body)
			}
		})
	}
}
