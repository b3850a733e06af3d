package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 samples beyond p99.9
		{9999, 99},    // 9 beyond p99.9, 99 beyond p99
		{1000, 99},    // exactly 10 beyond p99
		{999, 95},     // 9 beyond p99
		{200, 95},     // 10 beyond p95
		{199, 90},
		{40, 75},
		{20, 50},
		{19, 0}, // not even the median has 10 beyond it
		{0, 0},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailOfFallsBackDownTheLadder(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tl := tailOf(xs, 99)
	if tl.Pct != 95 || tl.Value != 950 {
		t.Fatalf("999 samples: got p%g = %g, want p95 = 950", tl.Pct, tl.Value)
	}
	xs = append(xs, 1000)
	tl = tailOf(xs, 99)
	if tl.Pct != 99 || tl.Value != 990 {
		t.Fatalf("1000 samples: got p%g = %g, want p99 = 990", tl.Pct, tl.Value)
	}
	if tl := tailOf(xs[:5], 99); !math.IsNaN(tl.Value) {
		t.Fatalf("5 samples support no percentile, got p%g = %g", tl.Pct, tl.Value)
	}
}

func TestWindowedTailIsTheMedianWindowP99(t *testing.T) {
	// Three windows of 1,000: the middle one stalled. Each window's p99
	// is its 990th value; the stall moves only its own window.
	var xs []float64
	for w, base := range []float64{0, 5000, 0} {
		for i := 1; i <= 1000; i++ {
			xs = append(xs, base+float64(i)+float64(w))
		}
	}
	if tl := windowedTail(xs); tl.Pct != 99 || tl.Value != 992 {
		t.Fatalf("got p%g = %g, want p99 = 992 (the third window's)", tl.Pct, tl.Value)
	}
	// Under two windows it is the plain tail.
	if got, want := windowedTail(xs[:1999]), tailOf(xs[:1999], 99); got != want {
		t.Fatalf("1,999 samples: got %+v, want %+v", got, want)
	}
}

func TestWindowedMedianIsALowWindowMedian(t *testing.T) {
	// Twenty one-second windows of 200: three quiet ones at 1, 2 and 3 ms,
	// the rest slowed to 10 ms. The 10th percentile of the window medians
	// is the second lowest.
	var xs []float64
	for w := 0; w < 20; w++ {
		v := 10.0
		if w%7 == 0 {
			v = float64(w/7 + 1)
		}
		for i := 0; i < 200; i++ {
			xs = append(xs, v)
		}
	}
	if got := windowedMedian(xs); got != 2 {
		t.Fatalf("got %g, want 2", got)
	}
	// Under two windows it is the plain median.
	if got := windowedMedian(xs[:399]); got != 1 {
		t.Fatalf("399 samples: got %g, want the median 1", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (exclusive method) on reference inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 30}, 5, 20, 35},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	spans := [][2]time.Duration{{0, 10}, {5, 15}, {20, 25}, {22, 23}}
	if got := unionLen(spans); got != 20 {
		t.Fatalf("unionLen = %d, want 20", got)
	}
}
