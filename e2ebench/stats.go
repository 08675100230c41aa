package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1):
// the smallest sample with at least a q share of the samples at or
// below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based index of the nearest-rank q-quantile in a
// sorted sample of n values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples ranked above the nearest-rank q-quantile —
// the samples that make the percentile meaningful (a p90 needs ≥10).
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// median is the 0.5 nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// certGap is the mean certified relative gap: the geometric mean of
// the ratios upper/lower, minus one. Gaps of single decision calls
// span orders of magnitude (an ALO dual exit can certify Upper/Lower
// in the thousands), so the mean is taken on the log scale, where no
// single bracket dominates it but every loosened one still moves it.
func certGap(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	l := 0.0
	for _, r := range ratios {
		l += math.Log(r)
	}
	return math.Exp(l/float64(len(ratios))) - 1
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stat accumulates samples for a mean.
type stat struct {
	sum float64
	n   int
}

func (s *stat) add(x float64) { s.sum += x; s.n++ }

// time adds the duration of f in nanoseconds.
func (s *stat) time(f func()) {
	t0 := time.Now()
	f()
	s.add(float64(time.Since(t0).Nanoseconds()))
}

// mean is the sample mean, 0 with no samples.
func (s *stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}
