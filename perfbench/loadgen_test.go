package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestOpenLoopChargesStallsFromDueTime drives a target that stalls on one
// request while the generator may have only one request outstanding. The
// requests due during the stall cannot be sent until it ends, so their
// lateness and their latency (measured from the due time) must both carry
// the stall, although each of them is served instantly once sent. A
// generator that starts the clock at send time would report them as fast.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const (
		stallAt = 5
		stall   = 40 * time.Millisecond
	)
	release := make(chan struct{})
	stalled := make(chan struct{})
	go func() {
		<-stalled
		time.Sleep(stall)
		close(release)
	}()
	ol := openLoop{Rate: 1000, N: 20, InFlight: 1}
	res := ol.run(context.Background(), func(ctx context.Context, i int) error {
		if i == stallAt {
			close(stalled)
			<-release
		}
		return nil
	})
	if n := res.failures(); n != 0 {
		t.Fatalf("%d failures", n)
	}
	// Request stallAt+1 was due 1ms after the stalled one was sent and
	// could not be sent before the stall ended, at least 40ms later.
	next := stallAt + 1
	if res.Lateness[next] < stall-5*time.Millisecond {
		t.Errorf("lateness of request %d = %v, want at least %v", next, res.Lateness[next], stall-5*time.Millisecond)
	}
	if res.Latency[next] < res.Lateness[next] {
		t.Errorf("latency %v is less than lateness %v: clock not started at the due time", res.Latency[next], res.Lateness[next])
	}
	if res.Latency[stallAt] < stall {
		t.Errorf("stalled request latency %v, want at least %v", res.Latency[stallAt], stall)
	}
	if res.maxLateness() < ms(stall-5*time.Millisecond) {
		t.Errorf("maxLateness = %.2fms", res.maxLateness())
	}
}

// TestOpenLoopBoundsInFlight checks the outstanding-request cap.
func TestOpenLoopBoundsInFlight(t *testing.T) {
	var cur, peak int
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	ol := openLoop{Rate: 1e6, N: 200, InFlight: 2}
	res := ol.run(context.Background(), func(ctx context.Context, i int) error {
		<-mu
		cur++
		peak = max(peak, cur)
		mu <- struct{}{}
		time.Sleep(100 * time.Microsecond)
		<-mu
		cur--
		mu <- struct{}{}
		return nil
	})
	if res.failures() != 0 {
		t.Fatalf("%d failures", res.failures())
	}
	if peak > 2 {
		t.Fatalf("peak in flight %d, cap 2", peak)
	}
}

// TestOpenLoopCountsErrorsAndUnsent checks that failed requests and the
// requests a cancelled run never sent are both reported as failed.
func TestOpenLoopCountsErrorsAndUnsent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ol := openLoop{Rate: 1000, N: 50, InFlight: 1}
	res := ol.run(ctx, func(ctx context.Context, i int) error {
		if i == 3 {
			cancel()
		}
		if i%2 == 1 {
			return errors.New("boom")
		}
		return nil
	})
	// Requests 0..3 were sent (1 and 3 failed); 4..49 were never sent.
	if got, want := res.failures(), 2+46; got != want {
		t.Fatalf("failures = %d, want %d", got, want)
	}
}

func TestLatenessGrowthSeesABacklog(t *testing.T) {
	steady := &loadResult{Lateness: make([]time.Duration, 100)}
	if g := steady.latenessGrowth(); g != 0 {
		t.Errorf("steady growth = %g", g)
	}
	backlog := &loadResult{Lateness: make([]time.Duration, 100)}
	for i := range backlog.Lateness {
		backlog.Lateness[i] = time.Duration(i) * time.Millisecond
	}
	if g := backlog.latenessGrowth(); g < 70 {
		t.Errorf("backlog growth = %gms, want about 75", g)
	}
}
