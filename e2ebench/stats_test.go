package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	cases := []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
}

// beyond counts the samples ranked above the percentile: a p90 over
// 100 samples has 10 beyond it, over 99 it has 9.
func TestBeyond(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {99, 9}, {100, 10}, {101, 10}, {110, 11}}
	for _, c := range cases {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// cert_gap is a geometric mean, and a loosened outlier still moves it.
func TestCertGap(t *testing.T) {
	if got := certGap([]float64{4, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("certGap(4, 1) = %v, want 1", got)
	}
	r := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	base := certGap(r)
	if math.Abs(base-1) > 1e-12 {
		t.Errorf("certGap of ten brackets of 2 = %v, want 1", base)
	}
	r[9] = 2e4
	if got := certGap(r); !(got > base) {
		t.Errorf("certGap with one loosened bracket = %v, not above %v", got, base)
	}
	if got := certGap(nil); got != 0 {
		t.Errorf("certGap() = %v, want 0", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\n" +
		"psdpd_solve_seconds_sum{kind=\"decision\"} 1.5\n" +
		"psdpd_solve_seconds_sum{kind=\"mixed\"} 0.25\n" +
		"psdpd_queue_wait_seconds_count 7\n"
	s := snapshot{metrics: parseMetrics(text)}
	if got := s.series("psdpd_solve_seconds_sum"); got != 1.75 {
		t.Errorf("all kinds = %v, want 1.75", got)
	}
	if got := s.series("psdpd_solve_seconds_sum", `kind="mixed"`); got != 0.25 {
		t.Errorf("mixed = %v, want 0.25", got)
	}
	if got := s.series("psdpd_queue_wait_seconds_count"); got != 7 {
		t.Errorf("queue count = %v, want 7", got)
	}
}
