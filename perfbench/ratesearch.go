package main

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// rateSearch finds the sustained rate with an up-down staircase: each
// probe that passes raises the offered rate by one step, each that fails
// lowers it by one, so the rates offered settle around the boundary
// between keeping up and falling behind. The result is the median of the
// rates offered from the first reversal on.
//
// A bisection would rest the answer on its last two probes, and on this
// kind of host a target's speed drifts by a fifth from one second to the
// next as neighbours contend for the cores and caches: one slow second
// fails a probe far below the usual boundary and the bisection never
// climbs back. The staircase recovers on the next probe and its median
// averages the drift over every probe it runs.
type rateSearch struct {
	Start  float64 // first rate offered
	Step   float64 // relative step once the boundary is found
	Probes int     // probes to run
}

// probeFunc offers rate for one probe and reports whether the target kept
// up with it.
type probeFunc func(ctx context.Context, rate float64) (bool, error)

type probeResult struct {
	Rate float64
	OK   bool
}

func (p probeResult) String() string {
	mark := "fail"
	if p.OK {
		mark = "pass"
	}
	return fmt.Sprintf("%.0f:%s", p.Rate, mark)
}

// run offers s.Probes probes. Until the first reversal the step is
// doubled, so a start far from the boundary costs few probes. It returns
// 0 when no probe passed.
func (s rateSearch) run(ctx context.Context, probe probeFunc) (float64, []probeResult, error) {
	if s.Start <= 0 || s.Step <= 0 || s.Probes < 2 {
		return 0, nil, fmt.Errorf("rate search: bad parameters start %g step %g probes %d", s.Start, s.Step, s.Probes)
	}
	var trail []probeResult
	rate := s.Start
	reversal := -1 // index of the first probe after the first reversal
	for i := 0; i < s.Probes; i++ {
		ok, err := probe(ctx, rate)
		if err != nil {
			return 0, trail, err
		}
		trail = append(trail, probeResult{Rate: rate, OK: ok})
		if reversal < 0 && i > 0 && ok != trail[i-1].OK {
			reversal = i
		}
		step := s.Step
		if reversal < 0 {
			step *= 2
		}
		if ok {
			rate *= 1 + step
		} else {
			rate /= 1 + step
		}
	}
	var settled []float64
	for i, p := range trail {
		if reversal >= 0 && i >= reversal-1 {
			settled = append(settled, p.Rate)
		}
	}
	if reversal < 0 {
		// Never reversed: every probe passed or every probe failed.
		if !trail[0].OK {
			return 0, trail, nil
		}
		return trail[len(trail)-1].Rate, trail, nil
	}
	sort.Float64s(settled)
	return geomMedian(settled), trail, nil
}

// geomMedian is the median of sorted rates, averaging the two middle ones
// geometrically, as the staircase's steps are multiplicative.
func geomMedian(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return math.Sqrt(sorted[n/2-1] * sorted[n/2])
}
