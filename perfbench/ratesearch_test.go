package main

import (
	"context"
	"math"
	"testing"
)

// knee is a synthetic target that keeps up with any rate up to its
// capacity and with none above it.
func knee(capacity float64) probeFunc {
	return func(_ context.Context, rate float64) (bool, error) { return rate <= capacity, nil }
}

func TestRateSearchSettlesOnTheKnee(t *testing.T) {
	for _, c := range []struct {
		name     string
		start    float64
		capacity float64
	}{
		{"start below", 300, 437},
		{"start above", 900, 437},
		{"start at", 437, 437},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := rateSearch{Start: c.start, Step: 0.04, Probes: 12}
			got, trail, err := s.run(context.Background(), knee(c.capacity))
			if err != nil {
				t.Fatal(err)
			}
			// The staircase oscillates within one step of the knee.
			if math.Abs(math.Log(got/c.capacity)) > math.Log(1.04) {
				t.Fatalf("sustained rate %g for capacity %g, trail %v", got, c.capacity, trail)
			}
			if len(trail) != 12 {
				t.Fatalf("%d probes, want 12", len(trail))
			}
		})
	}
}

// TestRateSearchRecoversFromOneBadProbe: a target that keeps up at 500
// but fails one probe far below it (a slow second on a shared host) still
// yields a rate near 500, where a bisection would have stayed low.
func TestRateSearchRecoversFromOneBadProbe(t *testing.T) {
	calls := 0
	probe := func(_ context.Context, rate float64) (bool, error) {
		calls++
		if calls == 2 {
			return false, nil
		}
		return rate <= 500, nil
	}
	got, trail, err := rateSearch{Start: 400, Step: 0.04, Probes: 16}.run(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if got < 500/1.09 || got > 500*1.04 {
		t.Fatalf("sustained rate %g, want about 500; trail %v", got, trail)
	}
}

func TestRateSearchReportsZeroWhenNothingPasses(t *testing.T) {
	got, _, err := rateSearch{Start: 100, Step: 0.05, Probes: 6}.run(context.Background(), knee(0))
	if err != nil || got != 0 {
		t.Fatalf("got %g, %v; want 0, nil", got, err)
	}
}

func TestRateSearchRejectsBadParameters(t *testing.T) {
	if _, _, err := (rateSearch{Start: 0, Step: 0.1, Probes: 5}).run(context.Background(), knee(5)); err == nil {
		t.Fatal("want an error for a zero start")
	}
}
