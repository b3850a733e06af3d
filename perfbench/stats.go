package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a timing may be reported at,
// highest first. A percentile is reported only when at least minBeyond
// samples lie beyond it, so a "p99" always rests on a real tail.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// supportedPercentile returns the highest percentile of the ladder that
// has at least minBeyond of n samples beyond it, or 0 when even the
// median lacks them.
func supportedPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns percentile p of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tail is a timing's tail percentile: the wanted percentile when the
// sample supports it, else the highest one it does support.
type tail struct {
	Pct   float64
	Value float64
}

// tailOf returns percentile want of samples, falling back down the ladder
// when fewer than minBeyond samples would lie beyond want.
func tailOf(samples []float64, want float64) tail {
	sorted := sortedCopy(samples)
	p := supportedPercentile(len(sorted))
	if p > want {
		p = want
	}
	if p == 0 {
		return tail{Value: math.NaN()}
	}
	return tail{Pct: p, Value: nearestRank(sorted, p)}
}

// tailWindow is the fewest samples whose p99 has minBeyond beyond it.
const tailWindow = 1000

// medianWindow is the samples in one window of the median estimate:
// about a second of a serving run.
const medianWindow = 200

// windows cuts samples, in the order they were taken, into the most
// consecutive windows of at least size each; nil when that is fewer than
// two.
func windows(samples []float64, size int) [][]float64 {
	k := len(samples) / size
	if k < 2 {
		return nil
	}
	out := make([][]float64, k)
	for j := range out {
		out[j] = samples[j*len(samples)/k : (j+1)*len(samples)/k]
	}
	return out
}

// windowedMedian is a run's typical latency from samples in the order
// they were taken: the 10th percentile of its one-second windows'
// medians. On a shared host the neighbours' load comes and goes over
// seconds and only ever slows the program, shifting a whole run's median
// by up to a fifth between runs of the same code; the run's quieter
// seconds show the program's own speed. With too few samples for two
// windows it is the median of all.
func windowedMedian(samples []float64) float64 {
	ws := windows(samples, medianWindow)
	if ws == nil {
		return median(samples)
	}
	meds := make([]float64, len(ws))
	for j, w := range ws {
		meds[j] = median(w)
	}
	return nearestRank(sortedCopy(meds), 10)
}

// windowedTail is a run's p99 from samples in the order they were taken:
// the samples are cut into consecutive windows of at least tailWindow,
// and the result is the median of the windows' p99s. One stalled second
// of a shared host then moves one window's p99, not the run's. With too
// few samples for two windows it is tailOf(samples, 99).
func windowedTail(samples []float64) tail {
	ws := windows(samples, tailWindow)
	if ws == nil {
		return tailOf(samples, 99)
	}
	p99s := make([]float64, len(ws))
	for j, w := range ws {
		p99s[j] = tailOf(w, 99).Value
	}
	return tail{Pct: 99, Value: median(p99s)}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle of xs (mean of the two middles for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so spreads computed here match the ones a
// Python harness computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
